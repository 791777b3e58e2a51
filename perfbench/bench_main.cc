// perfbench: drives the partitioner for the benchmark workloads.
//
//   perfbench gen SPEC SEED OUT.tpg
//       Builds the graph `SPEC` (generator syntax, e.g. rgg2d:n=1000,deg=16)
//       with SEED and writes it as a .tpg file.
//   perfbench run WORKLOAD GRAPH.tpg SEED SECONDS WORKDIR [--setup-only]
//       Untraced run: only the public entry points Partitioner::partition_file
//       and PartitionService::submit / JobHandle::wait are called.
//   perfbench trace WORKLOAD GRAPH.tpg SEED SECONDS WORKDIR
//       Traced run: the layers' public functions are called in pipeline
//       order, each bracketed by a span, with counters taken at the same
//       boundaries and the library's phase tree of each op. Spans and trees
//       are kept in memory and written to WORKDIR/trace.json at the end.
//
// Both run modes write every returned partition to WORKDIR (n uint32 block
// ids) and list it in WORKDIR/claims.tsv as "<op> <file> <k> <epsilon>
// <reported cut>", for perfbench_check to verify after this process ends.
// The last line on stdout is one JSON object with the raw measurements.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coarsening/coarsener.h"
#include "common/json.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/scoped_phase.h"
#include "compression/parallel_compressor.h"
#include "generators/generators.h"
#include "graph/graph_io.h"
#include "initial/initial_partitioner.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"
#include "partition/engine_registry.h"
#include "partition/facade.h"
#include "partition/metrics.h"
#include "partition/partitioned_graph.h"
#include "refinement/fm_refiner.h"
#include "refinement/lp_refiner.h"
#include "refinement/rebalancer.h"
#include "service/partition_service.h"

namespace {

using namespace terapart;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr BlockID kK = 64;
constexpr double kEpsilon = 0.03;
/// Compute threads at any time: the single-shot runs size the pool to this,
/// the service runs this many single-threaded workers.
constexpr int kThreads = 4;
/// The service mix: every k with every one of kServiceSeeds seeds is one
/// round; a run attempts whole rounds and at least kServiceMinRounds.
constexpr BlockID kServiceKs[] = {8, 16, 32, 64};
constexpr int kServiceSeeds = 4;
constexpr int kServiceMinRounds = 2;
constexpr int kServiceOutstanding = 4;

double seconds_between(const Clock::time_point a, const Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set size of this process (VmHWM), in bytes.
std::uint64_t vm_hwm_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

json::Value to_array(const std::vector<double> &values) {
  json::Value array = json::Value::array();
  for (const double v : values) {
    array.push_back(v);
  }
  return array;
}

struct Workload {
  std::string name;
  std::string preset;
  bool service = false;
};

std::optional<Workload> workload_by_name(const std::string &name) {
  if (name == "rgg-lp") {
    return Workload{name, "terapart", false};
  }
  if (name == "rhg-fm") {
    return Workload{name, "terapart-fm", false};
  }
  if (name == "svc-ks") {
    return Workload{name, "terapart", true};
  }
  return std::nullopt;
}

/// Partition seed of the i-th call of a single-shot run: every call uses a
/// seed of its own, so the run's median and worst cut range over seeds.
std::uint64_t call_seed(const std::uint64_t seed, const std::uint64_t i) {
  return seed * 1000 + i + 1;
}

Context make_context(const Workload &workload, const std::uint64_t seed, const int threads) {
  auto ctx = ContextBuilder(*preset_from_name(workload.preset))
                 .k(kK)
                 .epsilon(kEpsilon)
                 .seed(seed)
                 .threads(threads)
                 .build();
  if (!ctx) {
    throw std::runtime_error(ctx.error().to_string());
  }
  return std::move(ctx).value();
}

/// Writes partitions to the work directory and lists them as claims. Also
/// records the operations that failed before reaching the checker.
class Claims {
public:
  explicit Claims(const fs::path &dir) : _dir(dir), _out(dir / "claims.tsv") {}

  /// Writes `blocks` to a fresh file and claims (k, epsilon, cut) for op.
  std::string add(const std::uint64_t op, const std::vector<BlockID> &blocks, const BlockID k,
                  const double epsilon, const EdgeWeight cut) {
    const fs::path file = _dir / ("part_" + std::to_string(op) + ".bin");
    std::ofstream out(file, std::ios::binary);
    out.write(reinterpret_cast<const char *>(blocks.data()),
              static_cast<std::streamsize>(blocks.size() * sizeof(BlockID)));
    out.close();
    add_existing(op, file.string(), k, epsilon, cut);
    return file.string();
  }

  /// Claims (k, epsilon, cut) for op against an already written partition.
  void add_existing(const std::uint64_t op, const std::string &file, const BlockID k,
                    const double epsilon, const EdgeWeight cut) {
    _out << op << ' ' << file << ' ' << k << ' ' << epsilon << ' ' << cut << '\n';
  }

  void fail(const std::uint64_t op, const std::string &reason) {
    json::Value entry = json::Value::object();
    entry["op"] = op;
    entry["reason"] = reason;
    _failures.push_back(std::move(entry));
  }

  [[nodiscard]] json::Value failures() const { return _failures; }

private:
  fs::path _dir;
  std::ofstream _out;
  json::Value _failures = json::Value::array();
};

// ---------------------------------------------------------------------------
// Tracing: spans and counters recorded by the benchmark around layer calls.
// ---------------------------------------------------------------------------

class Tracer {
public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  /// Opens a span under the innermost open nested span. A detached span
  /// (a service job, several of which overlap) never becomes a parent.
  int open(std::string name, const std::uint64_t op, const bool detached = false) {
    _spans.push_back({std::move(name), now(), 0.0, detached ? -1 : _current, op});
    const int id = static_cast<int>(_spans.size()) - 1;
    if (!detached) {
      _current = id;
    }
    return id;
  }
  void close(const int id) {
    _spans[static_cast<std::size_t>(id)].end = now();
    if (_current == id) {
      _current = _spans[static_cast<std::size_t>(id)].parent;
    }
  }

  [[nodiscard]] double now() const { return seconds_between(_origin, Clock::now()); }

  /// Sum of the durations of spans named `name` under op `op`.
  [[nodiscard]] double total(const std::string &name, const std::uint64_t op) const {
    double sum = 0.0;
    for (const Span &span : _spans) {
      if (span.op == op && span.name == name) {
        sum += span.end - span.start;
      }
    }
    return sum;
  }

  /// Keeps the library phase tree recorded during op `op`.
  void add_phases(const std::uint64_t op, json::Value tree) {
    json::Value entry = json::Value::object();
    entry["op"] = op;
    entry["tree"] = std::move(tree);
    _phases.push_back(std::move(entry));
  }

  /// {"spans": [...], "phases": [{"op", "tree"}, ...]}
  [[nodiscard]] json::Value to_json() const {
    json::Value array = json::Value::array();
    for (const Span &span : _spans) {
      json::Value entry = json::Value::object();
      entry["name"] = span.name;
      entry["start"] = span.start;
      entry["end"] = span.end;
      entry["parent"] = static_cast<std::int64_t>(span.parent);
      entry["op"] = span.op;
      array.push_back(std::move(entry));
    }
    json::Value out = json::Value::object();
    out["spans"] = std::move(array);
    out["phases"] = _phases;
    return out;
  }

private:
  Clock::time_point _origin = Clock::now();
  std::vector<Span> _spans;
  json::Value _phases = json::Value::array();
  int _current = -1;
};

class SpanScope {
public:
  SpanScope(Tracer &tracer, std::string name, const std::uint64_t op)
      : _tracer(tracer), _id(tracer.open(std::move(name), op)) {}
  ~SpanScope() { _tracer.close(_id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &_tracer;
  int _id;
};

/// Per-op counter samples; the run reports the median over ops, or the
/// maximum for peaks.
class Counters {
public:
  void add(const std::string &name, const double value) { _samples[name].push_back(value); }
  [[nodiscard]] double median_of(const std::string &name) const {
    const auto it = _samples.find(name);
    return it == _samples.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] double max_of(const std::string &name) const {
    const auto it = _samples.find(name);
    return it == _samples.end() ? 0.0 : *std::max_element(it->second.begin(), it->second.end());
  }

private:
  std::map<std::string, std::vector<double>> _samples;
};

/// Wall-time-weighted mean, over the leaf phases of a phase tree that ran
/// parallel loops, of "scheduler/max_worker_imbalance" (the largest worker
/// share of a loop relative to a perfect split, in permille). Leaves are
/// where the loops run; weighting by time keeps tiny loops from dominating.
void weighted_imbalance(const PhaseNode &node, double &weighted, double &weight) {
  if (node.children.empty()) {
    const std::uint64_t permille = node.counter("scheduler/max_worker_imbalance");
    if (permille > 0) {
      weighted += node.wall_s * static_cast<double>(permille) / 1000.0;
      weight += node.wall_s;
    }
  }
  for (const auto &child : node.children) {
    weighted_imbalance(*child, weighted, weight);
  }
}

/// FM counters summed over the levels of one op.
struct FmTotals {
  double moves = 0.0;
  double rollbacks = 0.0;
  double gain_queries = 0.0;
};

/// One refinement pass of the preset's engine, with a span per call.
template <typename Graph>
void traced_refine(const Graph &graph, PartitionedGraph &partitioned, const Context &ctx,
                   const bool use_fm, const BlockWeight bound, const std::uint64_t seed,
                   Tracer &tracer, FmTotals &fm, const std::uint64_t op) {
  {
    SpanScope span(tracer, "refinement.lp", op);
    lp_refine(graph, partitioned, bound, ctx.lp_refinement, seed);
  }
  if (use_fm) {
    {
      SpanScope span(tracer, "refinement.fm", op);
      const FmStats stats =
          fm_refine(graph, partitioned, bound, ctx.fm, SeedSequence::fm_stage(seed));
      fm.moves += static_cast<double>(stats.moves);
      fm.rollbacks += static_cast<double>(stats.rollbacks);
      fm.gain_queries += static_cast<double>(stats.gain_queries);
    }
    SpanScope span(tracer, "refinement.rebalance", op);
    rebalance(graph, partitioned, bound);
  }
}

std::vector<BlockID> project(const std::vector<NodeID> &mapping,
                             const std::vector<BlockID> &coarse) {
  std::vector<BlockID> finer(mapping.size());
  par::for_each_dynamic<NodeID>(0, static_cast<NodeID>(mapping.size()),
                                [&](const NodeID u) { finer[u] = coarse[mapping[u]]; });
  return finer;
}

/// Initial partitioning plus uncoarsening against `levels` — the request
/// part of the pipeline. Returns the partition of `finest`.
template <typename Graph>
std::vector<BlockID> traced_request(const Graph &finest, const GraphHierarchy &levels,
                                    const Context &ctx, Tracer &tracer, Counters &counters,
                                    const std::uint64_t op) {
  const BlockID k = ctx.k;
  const SeedSequence seeds(ctx.seed);
  const bool use_fm = resolved_refinement_engine(ctx) == LpFmRefinementEngine::kName;
  const BlockWeight max_block_weight =
      metrics::max_block_weight(finest.total_node_weight(), k, ctx.epsilon);
  const auto bound = [&](const auto &graph) {
    return std::max<BlockWeight>(max_block_weight, graph.max_node_weight());
  };
  const std::size_t num_levels = levels.num_levels();
  const CsrGraph &coarsest = levels.coarsest();

  std::vector<BlockID> partition;
  {
    SpanScope span(tracer, "initial", op);
    partition = initial_partition(coarsest, k, ctx.epsilon, ctx.initial,
                                  seeds.initial_partitioning());
  }
  counters.add("initial.input_m", static_cast<double>(coarsest.m()));

  FmTotals fm;
  {
    SpanScope span(tracer, "refinement", op);
    PartitionedGraph top(coarsest, k, std::move(partition));
    traced_refine(coarsest, top, ctx, use_fm, bound(coarsest),
                  seeds.refinement(num_levels, num_levels), tracer, fm, op);
    partition = top.take_partition();
    for (std::size_t level = num_levels; level-- > 1;) {
      const CsrGraph &finer = levels.graphs[level - 1];
      PartitionedGraph partitioned(finer, k, project(levels.mappings[level], partition));
      traced_refine(finer, partitioned, ctx, use_fm, bound(finer),
                    seeds.refinement(level, num_levels), tracer, fm, op);
      partition = partitioned.take_partition();
    }
    PartitionedGraph partitioned(finest, k, project(levels.mappings[0], partition));
    traced_refine(finest, partitioned, ctx, use_fm, max_block_weight,
                  seeds.refinement(0, num_levels), tracer, fm, op);
    {
      SpanScope rebalance_span(tracer, "refinement.rebalance", op);
      rebalance(finest, partitioned, max_block_weight);
    }
    partition = partitioned.take_partition();
  }
  if (use_fm) {
    const double attempted = fm.moves + fm.rollbacks;
    counters.add("refinement.fm_kept_ratio", attempted > 0 ? fm.moves / attempted : 1.0);
    counters.add("refinement.fm_gain_queries", fm.gain_queries);
  }
  return partition;
}

/// Layer spans whose sum is subtracted from the op wall time to give
/// partition.unaccounted_s (nested spans are covered by their parents).
const char *const kLayerSpans[] = {"compression", "coarsening", "initial", "refinement"};

/// Derives the request counters of op `op` from its spans: initial
/// partitioning, refinement, op wall time and unaccounted time.
void add_span_counters(const Tracer &tracer, Counters &counters, const std::uint64_t op) {
  const double initial = tracer.total("initial", op);
  if (initial <= 0) {
    return;
  }
  const double refinement = tracer.total("refinement", op);
  const double r_lp = tracer.total("refinement.lp", op);
  const double r_fm = tracer.total("refinement.fm", op);
  const double r_rebalance = tracer.total("refinement.rebalance", op);
  counters.add("initial.s", initial);
  counters.add("refinement.s", refinement);
  counters.add("refinement.lp_s", r_lp);
  counters.add("refinement.fm_s", r_fm);
  counters.add("refinement.rebalance_s", r_rebalance);
  counters.add("refinement.self_s", refinement - r_lp - r_fm - r_rebalance);
  double layers = 0.0;
  for (const char *name : kLayerSpans) {
    layers += tracer.total(name, op);
  }
  const double wall = tracer.total("op", op);
  counters.add("op_s", wall);
  counters.add("partition.unaccounted_s", wall - layers);
}

/// Memory and scheduler counters of one traced op, and the phase tree the
/// library's own phases write into while the op runs; the tree goes into
/// the trace with the op's spans.
class OpProbe {
public:
  OpProbe(Tracer &tracer, const std::uint64_t op)
      : _tracer(tracer), _op(op), _binding(_tree), _before(par::scheduler_stats()) {
    MemoryTracker::global().reset_peak();
  }

  [[nodiscard]] const PhaseTree &tree() const { return _tree; }

  void finish(Counters &counters) {
    const MemoryTracker &tracker = MemoryTracker::global();
    const par::SchedulerStats after = par::scheduler_stats();
    counters.add("scheduler.tasks", static_cast<double>(after.tasks - _before.tasks));
    counters.add("scheduler.steals", static_cast<double>(after.steals - _before.steals));
    double weighted = 0.0;
    double weight = 0.0;
    weighted_imbalance(_tree.root(), weighted, weight);
    counters.add("scheduler.max_worker_imbalance", weight > 0 ? weighted / weight : 1.0);
    counters.add("memory.graph_peak_bytes", static_cast<double>(tracker.peak("graph")));
    counters.add("memory.lp_aux_peak_bytes", static_cast<double>(tracker.peak("lp/aux")));
    counters.add("memory.graph_coarse_peak_bytes",
                 static_cast<double>(tracker.peak("graph/coarse")));
    counters.add("memory.fm_gain_table_peak_bytes",
                 static_cast<double>(tracker.peak("fm/gain_table")));
    const std::uint64_t hwm = vm_hwm_bytes();
    counters.add("memory.untracked_bytes",
                 static_cast<double>(hwm) - static_cast<double>(tracker.peak()));
    _tracer.add_phases(_op, _tree.to_json());
  }

private:
  Tracer &_tracer;
  std::uint64_t _op;
  PhaseTree _tree;
  ActivePhaseScope _binding;
  par::SchedulerStats _before;
};

/// Coarsens through the library's `coarsen` under one span. The split into
/// LP clustering and contraction comes from the phases `coarsen` opens in
/// the op's phase tree (coarsening/level_N/{lp_clustering,contraction}).
template <typename Graph>
GraphHierarchy traced_coarsen(const Graph &finest, const CoarseningConfig &config, const BlockID k,
                              const std::uint64_t seed, Tracer &tracer, const OpProbe &probe,
                              Counters &counters, const std::uint64_t op) {
  GraphHierarchy hierarchy;
  {
    SpanScope span(tracer, "coarsening", op);
    ScopedPhase phase("coarsening");
    hierarchy = coarsen(finest, config, k, seed);
  }
  double lp = 0.0;
  double contraction = 0.0;
  double level1_lp = 0.0;
  if (const PhaseNode *node = probe.tree().root().child("coarsening")) {
    for (const auto &level : node->children) {
      const PhaseNode *lp_node = level->child("lp_clustering");
      const PhaseNode *contraction_node = level->child("contraction");
      lp += lp_node != nullptr ? lp_node->wall_s : 0.0;
      contraction += contraction_node != nullptr ? contraction_node->wall_s : 0.0;
      if (level->name == "level_1" && lp_node != nullptr) {
        level1_lp = lp_node->wall_s;
      }
    }
  }
  const double total = tracer.total("coarsening", op);
  counters.add("coarsening.s", total);
  counters.add("coarsening.lp_s", lp);
  counters.add("coarsening.contraction_s", contraction);
  counters.add("coarsening.self_s", total - lp - contraction);
  if (level1_lp > 0) {
    counters.add("coarsening.l1_lp_edges_per_s",
                 static_cast<double>(finest.m()) * config.lp.num_rounds / level1_lp);
  }
  counters.add("coarsening.levels", static_cast<double>(hierarchy.num_levels()));
  counters.add("coarsening.lp_moves", static_cast<double>(hierarchy.clustering_stats.moves));
  counters.add("coarsening.bumped_vertices",
               static_cast<double>(hierarchy.clustering_stats.bumped_vertices));
  if (!hierarchy.empty()) {
    counters.add("coarsening.coarsest_n", hierarchy.coarsest().n());
    counters.add("coarsening.coarsest_m", static_cast<double>(hierarchy.coarsest().m()));
  }
  return hierarchy;
}

/// Loads the graph through the single-pass compressed path under a span.
CompressedGraph traced_load(const std::string &path, Tracer &tracer, Counters &counters,
                            const std::uint64_t op) {
  const double start = tracer.now();
  auto loaded = [&] {
    SpanScope span(tracer, "compression", op);
    return try_compress_tpg_single_pass(path);
  }();
  if (!loaded) {
    throw std::runtime_error(loaded.error().to_string());
  }
  const double load_s = tracer.now() - start;
  CompressedGraph graph = std::move(loaded.value().graph);
  counters.add("compression.load_s", load_s);
  counters.add("compression.edges_per_s", static_cast<double>(graph.m()) / load_s);
  counters.add("compression.bytes_per_edge",
               static_cast<double>(graph.used_bytes()) / static_cast<double>(graph.m()));
  return graph;
}

// ---------------------------------------------------------------------------
// Service closed loop (shared by the untraced and the traced svc-ks runs).
// ---------------------------------------------------------------------------

struct ServiceLoopResult {
  double setup_s = 0.0;
  std::vector<double> latencies_s; ///< timed ops: submit -> terminal state
  std::vector<double> cuts;        ///< timed ops
  std::vector<double> queue_s;     ///< every finished op
  std::vector<double> run_s;
  double hierarchy_build_s = 0.0;
  double timed_wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t completed_timed = 0;
  std::uint64_t peak_tracked_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  json::Value stats;
  bool contract_ok = true; ///< one store load and one session-cache miss
};

std::unique_ptr<service::PartitionService> make_service(const std::uint64_t seed,
                                                       const int workers,
                                                       const int threads_per_job) {
  auto config = service::ServiceConfigBuilder()
                    .workers(workers)
                    .threads_per_job(threads_per_job)
                    .hierarchy_k(kK)
                    .hierarchy_seed(seed)
                    .build();
  if (!config) {
    throw std::runtime_error(config.error().to_string());
  }
  return std::make_unique<service::PartitionService>(std::move(config).value());
}

/// The request mix: round r is a seeded shuffle of every (k, seed) pair.
std::vector<std::pair<BlockID, std::uint64_t>> service_round(const std::uint64_t seed,
                                                             const int round) {
  std::vector<std::pair<BlockID, std::uint64_t>> pairs;
  for (const BlockID k : kServiceKs) {
    for (int s = 1; s <= kServiceSeeds; ++s) {
      pairs.emplace_back(k, seed * 100 + static_cast<std::uint64_t>(s));
    }
  }
  std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(round));
  std::shuffle(pairs.begin(), pairs.end(), rng);
  return pairs;
}

/// Runs the closed loop: one thread keeps kServiceOutstanding requests in
/// flight, attempts whole rounds of the mix, and stops submitting once
/// `seconds` of timed phase have passed. The timed phase starts when the
/// first job reaches a terminal state (the end of set-up); only jobs
/// submitted after that are timed. `setup_only` stops after that first job.
ServiceLoopResult service_loop(const std::string &graph, const std::uint64_t seed,
                               const double seconds, const bool setup_only, Claims &claims,
                               Tracer *tracer) {
  ServiceLoopResult out;
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<service::PartitionService> service = make_service(seed, kThreads, 1);

  struct InFlight {
    service::PartitionService::JobHandle handle;
    Clock::time_point submitted;
    std::uint64_t op;
    bool timed;
    int span;
  };
  std::vector<InFlight> in_flight;
  std::map<std::pair<BlockID, std::uint64_t>, std::string> first_partition;
  std::optional<Clock::time_point> timed_start;
  Clock::time_point last_done = start;
  int round = 0;
  std::vector<std::pair<BlockID, std::uint64_t>> pending = service_round(seed, round);
  std::size_t next = 0;
  bool submitting = true;

  while (submitting || !in_flight.empty()) {
    while (submitting && in_flight.size() < kServiceOutstanding) {
      if (next == pending.size()) {
        ++round;
        const bool time_up =
            timed_start.has_value() && seconds_between(*timed_start, Clock::now()) >= seconds;
        if (round >= kServiceMinRounds && time_up) {
          submitting = false;
          break;
        }
        pending = service_round(seed, round);
        next = 0;
      }
      const auto [k, job_seed] = pending[next++];
      service::JobRequest request;
      request.graph = graph;
      request.k = k;
      request.epsilon = kEpsilon;
      request.seed = job_seed;
      request.preset = "terapart";
      const std::uint64_t op = out.attempted++;
      const int span = tracer != nullptr ? tracer->open("service.job", op, true) : -1;
      auto handle = service->submit(std::move(request));
      if (!handle) {
        claims.fail(op, handle.error().to_string());
        if (tracer != nullptr) {
          tracer->close(span);
        }
        continue;
      }
      in_flight.push_back({handle.value(), Clock::now(), op, timed_start.has_value(), span});
      if (setup_only) {
        submitting = false;
      }
    }

    bool any_done = false;
    for (std::size_t i = 0; i < in_flight.size();) {
      if (!service::job_state_terminal(in_flight[i].handle.state())) {
        ++i;
        continue;
      }
      const Clock::time_point done = Clock::now();
      InFlight job = std::move(in_flight[i]);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
      any_done = true;
      if (tracer != nullptr) {
        tracer->close(job.span);
      }
      if (!timed_start.has_value()) {
        timed_start = done;
        out.setup_s = seconds_between(start, done);
        MemoryTracker::global().reset_peak();
      }
      const service::JobResult &result = job.handle.wait();
      out.queue_s.push_back(result.queue_ms / 1000.0);
      out.run_s.push_back(result.run_ms / 1000.0);
      if (!result.hierarchy_reused && result.has_partition()) {
        out.hierarchy_build_s = result.run_ms / 1000.0;
      }
      if (result.state != service::JobState::kDone &&
          result.state != service::JobState::kDegraded) {
        claims.fail(job.op, std::string("job ended ") + service::job_state_name(result.state) +
                                " " + result.error.to_string() + result.shed_reason);
        continue;
      }
      const std::vector<BlockID> &blocks = result.partition.partition;
      const std::pair<BlockID, std::uint64_t> key{result.request.k, result.request.seed};
      const auto seen = first_partition.find(key);
      if (seen == first_partition.end()) {
        first_partition[key] =
            claims.add(job.op, blocks, key.first, kEpsilon, result.partition.cut);
      } else {
        // The p = 1 session determinism contract: a repeated (k, seed)
        // request returns a bit-identical partition.
        std::vector<BlockID> reference(blocks.size());
        std::ifstream in(seen->second, std::ios::binary);
        in.read(reinterpret_cast<char *>(reference.data()),
                static_cast<std::streamsize>(reference.size() * sizeof(BlockID)));
        if (!in || reference != blocks) {
          claims.fail(job.op, "repeated (k=" + std::to_string(key.first) +
                                  ", seed=" + std::to_string(key.second) +
                                  ") request returned a different partition");
          claims.add(job.op, blocks, key.first, kEpsilon, result.partition.cut);
        } else {
          claims.add_existing(job.op, seen->second, key.first, kEpsilon, result.partition.cut);
        }
      }
      if (job.timed) {
        out.latencies_s.push_back(seconds_between(job.submitted, done));
        out.cuts.push_back(static_cast<double>(result.partition.cut));
        ++out.completed_timed;
        last_done = done;
      }
    }
    if (!any_done) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (timed_start.has_value() && out.completed_timed > 0) {
    out.timed_wall_s = seconds_between(*timed_start, last_done);
  }
  out.peak_tracked_bytes = MemoryTracker::global().peak();
  out.peak_rss_bytes = vm_hwm_bytes();
  out.stats = service->stats_json();
  const json::Value *store = out.stats.find("store");
  const json::Value *cache = out.stats.find("session_cache");
  out.contract_ok = store != nullptr && cache != nullptr &&
                    store->find("loads")->as_uint64() == 1 &&
                    cache->find("misses")->as_uint64() == 1;
  return out;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

int cmd_gen(const std::string &spec, const std::uint64_t seed, const std::string &out) {
  const CsrGraph graph = gen::by_spec(spec, seed);
  const std::string tmp = out + ".tmp";
  if (Status status = io::try_write_tpg(tmp, graph); !status) {
    std::cerr << status.error().to_string() << "\n";
    return 1;
  }
  fs::rename(tmp, out);
  return 0;
}

/// One public partition_file call; the partition goes to the checker.
struct FileOp {
  bool ok = false;
  double wall_s = 0.0;
  double cut = 0.0;
};

FileOp partition_file_op(const Workload &workload, const std::string &graph,
                         const std::uint64_t run_seed, const std::uint64_t op, Claims &claims) {
  const Partitioner partitioner(make_context(workload, run_seed, kThreads));
  const Clock::time_point t0 = Clock::now();
  auto result = partitioner.partition_file(graph);
  FileOp out;
  out.wall_s = seconds_between(t0, Clock::now());
  if (!result) {
    claims.fail(op, result.error().to_string());
    return out;
  }
  const PartitionResult &r = result.value();
  claims.add(op, r.partition, kK, kEpsilon, r.cut);
  out.ok = true;
  out.cut = static_cast<double>(r.cut);
  return out;
}

/// Untraced single-shot run: one untimed set-up call, then partition_file
/// calls (a round is one call) until `seconds` of timed calls have passed.
json::Value run_single_shot(const Workload &workload, const std::string &graph,
                            const std::uint64_t seed, const double seconds, const bool setup_only,
                            Claims &claims) {
  json::Value out = json::Value::object();
  std::uint64_t op = 0;
  const FileOp setup = partition_file_op(workload, graph, call_seed(seed, op), op, claims);
  ++op;
  out["setup_s"] = setup.wall_s;
  if (setup_only) {
    out["attempted"] = op;
    return out;
  }
  MemoryTracker::global().reset_peak();
  std::vector<double> times;
  std::vector<double> cuts;
  double timed_wall = 0.0;
  while (timed_wall < seconds) {
    const FileOp result = partition_file_op(workload, graph, call_seed(seed, op), op, claims);
    ++op;
    timed_wall += result.wall_s;
    if (result.ok) {
      times.push_back(result.wall_s);
      cuts.push_back(result.cut);
    }
  }
  out["peak_tracked_bytes"] = MemoryTracker::global().peak();
  out["peak_rss_bytes"] = vm_hwm_bytes();
  out["attempted"] = op;
  out["op_s"] = to_array(times);
  out["cuts"] = to_array(cuts);
  out["timed_wall_s"] = timed_wall;
  return out;
}

/// Service counters of one set of finished jobs.
void add_service_metrics(json::Value &metrics, const ServiceLoopResult &loop) {
  metrics["service.queue_s_p50"] = median(loop.queue_s);
  metrics["service.run_s_p50"] = median(loop.run_s);
  metrics["service.hierarchy_build_s"] = loop.hierarchy_build_s;
  const json::Value &cache = *loop.stats.find("session_cache");
  const double hits = static_cast<double>(cache.find("hits")->as_uint64());
  const double misses = static_cast<double>(cache.find("misses")->as_uint64());
  metrics["service.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/// The per-layer metrics every traced run reports, as medians over its ops.
const char *const kCounterMetrics[] = {
    "compression.load_s",          "compression.edges_per_s",
    "compression.bytes_per_edge",  "coarsening.s",
    "coarsening.lp_s",             "coarsening.contraction_s",
    "coarsening.self_s",           "coarsening.l1_lp_edges_per_s",
    "coarsening.levels",           "coarsening.coarsest_n",
    "coarsening.coarsest_m",       "coarsening.lp_moves",
    "coarsening.bumped_vertices",  "initial.s",
    "initial.input_m",             "refinement.s",
    "refinement.lp_s",             "refinement.fm_s",
    "refinement.rebalance_s",      "refinement.self_s",
    "refinement.fm_kept_ratio",    "refinement.fm_gain_queries",
    "memory.graph_peak_bytes",     "memory.lp_aux_peak_bytes",
    "memory.graph_coarse_peak_bytes", "memory.fm_gain_table_peak_bytes",
    "memory.untracked_bytes",      "scheduler.tasks",
    "scheduler.steals",            "scheduler.max_worker_imbalance",
    "partition.unaccounted_s",
};

json::Value counter_metrics(const Counters &counters) {
  json::Value metrics = json::Value::object();
  for (const char *name : kCounterMetrics) {
    const bool peak = std::string_view(name).starts_with("memory.");
    metrics[name] = peak ? counters.max_of(name) : counters.median_of(name);
  }
  metrics["trace.overhead_s"] =
      counters.median_of("op_s") - counters.median_of("untraced_op_s");
  return metrics;
}

/// Traced single-shot run. Each round runs, with a partition seed of its
/// own, one untraced partition_file call (the reference for the tracing
/// overhead) and one traced op through the layers. A single-worker service with the
/// preset then serves two jobs (one hierarchy build, one cache hit).
json::Value trace_single_shot(const Workload &workload, const std::string &graph,
                              const std::uint64_t seed, const double seconds, Claims &claims,
                              Tracer &tracer) {
  Counters counters;
  std::uint64_t op = 0;
  double elapsed = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t round = 0; elapsed < seconds; ++round) {
    const std::uint64_t run_seed = call_seed(seed, round);
    const FileOp untraced = partition_file_op(workload, graph, run_seed, op++, claims);
    counters.add("untraced_op_s", untraced.wall_s);

    const Context ctx = make_context(workload, run_seed, kThreads);
    par::set_num_threads(kThreads);
    const std::uint64_t id = op++;
    OpProbe probe(tracer, id);
    std::vector<BlockID> partition;
    EdgeWeight cut = 0;
    {
      SpanScope span(tracer, "op", id);
      const CompressedGraph input = traced_load(graph, tracer, counters, id);
      const GraphHierarchy levels = traced_coarsen(input, ctx.coarsening, ctx.k,
                                                   SeedSequence(ctx.seed).coarsening(), tracer,
                                                   probe, counters, id);
      partition = traced_request(input, levels, ctx, tracer, counters, id);
      cut = metrics::edge_cut(input, partition);
    }
    probe.finish(counters);
    claims.add(id, partition, kK, kEpsilon, cut);
    add_span_counters(tracer, counters, id);
    elapsed = seconds_between(start, Clock::now());
  }
  json::Value metrics = counter_metrics(counters);

  // The service path for one large job at a time: intra-job parallelism.
  ServiceLoopResult loop;
  {
    std::unique_ptr<service::PartitionService> service = make_service(seed, 1, kThreads);
    for (const std::uint64_t run_seed : {call_seed(seed, 0), call_seed(seed, 1)}) {
      service::JobRequest request;
      request.graph = graph;
      request.k = kK;
      request.epsilon = kEpsilon;
      request.seed = run_seed;
      request.preset = workload.preset;
      const std::uint64_t id = op++;
      const int span = tracer.open("service.job", id, true);
      auto handle = service->submit(std::move(request));
      if (!handle) {
        tracer.close(span);
        claims.fail(id, handle.error().to_string());
        continue;
      }
      const service::JobResult &result = handle.value().wait();
      tracer.close(span);
      loop.queue_s.push_back(result.queue_ms / 1000.0);
      loop.run_s.push_back(result.run_ms / 1000.0);
      if (!result.hierarchy_reused) {
        loop.hierarchy_build_s = result.run_ms / 1000.0;
      }
      if (!result.has_partition()) {
        claims.fail(id, std::string("job ended ") + service::job_state_name(result.state));
        continue;
      }
      claims.add(id, result.partition.partition, kK, kEpsilon, result.partition.cut);
    }
    loop.stats = service->stats_json();
  }
  add_service_metrics(metrics, loop);

  json::Value out = json::Value::object();
  out["attempted"] = op;
  out["metrics"] = metrics;
  return out;
}

json::Value run_service(const std::string &graph, const std::uint64_t seed, const double seconds,
                        const bool setup_only, Claims &claims) {
  const ServiceLoopResult loop = service_loop(graph, seed, seconds, setup_only, claims, nullptr);
  json::Value out = json::Value::object();
  out["setup_s"] = loop.setup_s;
  out["attempted"] = loop.attempted;
  if (setup_only) {
    return out;
  }
  out["peak_tracked_bytes"] = loop.peak_tracked_bytes;
  out["peak_rss_bytes"] = loop.peak_rss_bytes;
  out["op_s"] = to_array(loop.latencies_s);
  out["cuts"] = to_array(loop.cuts);
  out["timed_wall_s"] = loop.timed_wall_s;
  out["service_contract_ok"] = loop.contract_ok;
  out["service_stats"] = loop.stats;
  return out;
}

/// Traced service run. Phase A replays, single-threaded like each service
/// worker, what a session does: one traced build (load + coarsening with
/// the service's hierarchy pinning) and then requests against the retained
/// levels, each next to the same request through PartitionSession (the
/// overhead reference). Phase B is the closed loop of the untraced run
/// with a span around every submit -> terminal state.
json::Value trace_service(const std::string &graph, const std::uint64_t seed,
                          const double seconds, Claims &claims, Tracer &tracer) {
  const Workload workload = *workload_by_name("svc-ks");
  Counters counters;
  par::set_num_threads(1);
  // Phase A op ids start apart from the loop's; the build makes no
  // partition, so it is traced under its own id and not counted.
  constexpr std::uint64_t kFirstRequest = 1'000'000;
  const std::uint64_t build_id = kFirstRequest - 1;
  std::uint64_t op = kFirstRequest;
  Context base = make_context(workload, seed, 0);
  base.hierarchy_k = kK;
  base.hierarchy_seed = seed;
  {
    // The build's probe must release its phase-tree binding before the
    // requests bind their own.
    std::optional<OpProbe> probe(std::in_place, tracer, build_id);
    const int build_span = tracer.open("op", build_id);
    const CompressedGraph input = traced_load(graph, tracer, counters, build_id);
    const GraphHierarchy levels =
        traced_coarsen(input, base.coarsening, kK, seed, tracer, *probe, counters, build_id);
    tracer.close(build_span);
    probe->finish(counters);
    probe.reset();

    // The session's first request builds its retained hierarchy.
    PartitionSession session(input, base);
    const PartitionResult first = session.partition(kK, kEpsilon, seed * 100 + 1);
    claims.add(op++, first.partition, kK, kEpsilon, first.cut);
    const auto requests = service_round(seed, 0);
    for (std::size_t i = 0; i < requests.size() / 2; ++i) {
      const auto [k, request_seed] = requests[i];
      const Clock::time_point t0 = Clock::now();
      const PartitionResult reference = session.partition_shared(k, kEpsilon, request_seed);
      counters.add("untraced_op_s", seconds_between(t0, Clock::now()));

      const Context ctx = session.request_context(k, kEpsilon, request_seed);
      const std::uint64_t id = op++;
      OpProbe request_probe(tracer, id);
      std::vector<BlockID> partition;
      EdgeWeight cut = 0;
      {
        SpanScope span(tracer, "op", id);
        partition = traced_request(input, levels, ctx, tracer, counters, id);
        cut = metrics::edge_cut(input, partition);
      }
      request_probe.finish(counters);
      claims.add(id, partition, k, kEpsilon, cut);
      claims.add(op++, reference.partition, k, kEpsilon, reference.cut);
      add_span_counters(tracer, counters, id);
    }
  }
  json::Value metrics = counter_metrics(counters);

  const ServiceLoopResult loop = service_loop(graph, seed, seconds, false, claims, &tracer);
  add_service_metrics(metrics, loop);
  json::Value out = json::Value::object();
  out["attempted"] = loop.attempted + (op - kFirstRequest);
  out["service_contract_ok"] = loop.contract_ok;
  out["metrics"] = metrics;
  return out;
}

int usage() {
  std::cerr << "usage: perfbench gen SPEC SEED OUT.tpg\n"
               "       perfbench run|trace WORKLOAD GRAPH.tpg SEED SECONDS WORKDIR "
               "[--setup-only]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 4 && args[0] == "gen") {
      return cmd_gen(args[1], std::stoull(args[2]), args[3]);
    }
    if (args.size() < 6 || (args[0] != "run" && args[0] != "trace")) {
      return usage();
    }
    const std::optional<Workload> workload = workload_by_name(args[1]);
    if (!workload) {
      std::cerr << "unknown workload " << args[1] << "\n";
      return 2;
    }
    const std::string graph = args[2];
    const std::uint64_t seed = std::stoull(args[3]);
    const double seconds = std::stod(args[4]);
    const fs::path workdir = args[5];
    const bool setup_only = args.size() > 6 && args[6] == "--setup-only";
    Claims claims(workdir);

    json::Value out;
    if (args[0] == "run") {
      out = workload->service
                ? run_service(graph, seed, seconds, setup_only, claims)
                : run_single_shot(*workload, graph, seed, seconds, setup_only, claims);
    } else {
      Tracer tracer;
      out = workload->service ? trace_service(graph, seed, seconds, claims, tracer)
                              : trace_single_shot(*workload, graph, seed, seconds, claims, tracer);
      std::ofstream trace(workdir / "trace.json");
      trace << tracer.to_json().dump(-1) << "\n";
    }
    out["failures"] = claims.failures();
    std::cout << out.dump(-1) << std::endl;
    return 0;
  } catch (const std::exception &e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
