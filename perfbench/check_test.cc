// Rejection tests of the benchmark's output checker: it must accept a real
// partition returned by the partitioner and reject each single mutation of
// it that breaks a promise (block id range, L_max, reported cut), as well as
// a uniform random assignment.
//
//   perfbench_check_test SCRATCH_DIR
//
// Exits 0 when every test passes.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "generators/generators.h"
#include "graph/graph_io.h"
#include "partition/facade.h"
#include "tpg_check.h"

namespace {

int g_failures = 0;

void expect(const bool condition, const std::string &test, const std::string &what) {
  if (!condition) {
    ++g_failures;
    std::fprintf(stderr, "FAIL %s: %s\n", test.c_str(), what.c_str());
  }
}

perfbench::Verdict judge(const std::string &graph, const perfbench::Claim &claim) {
  std::vector<perfbench::Verdict> verdicts;
  std::string error;
  if (!perfbench::check_claims(graph, {claim}, verdicts, error)) {
    perfbench::Verdict failed;
    failed.reason = "check_claims failed: " + error;
    return failed;
  }
  return verdicts.front();
}

/// Block weights of unit-weight vertices.
std::vector<std::int64_t> weights_of(const std::vector<std::uint32_t> &blocks, std::uint32_t k) {
  std::vector<std::int64_t> weights(k, 0);
  for (const std::uint32_t b : blocks) {
    ++weights[b];
  }
  return weights;
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_check_test SCRATCH_DIR\n");
    return 2;
  }
  const std::filesystem::path dir = argv[1];
  std::filesystem::create_directories(dir);
  const std::string graph_path = (dir / "check_test.tpg").string();
  const terapart::CsrGraph graph = terapart::gen::rgg2d(4000, 12, 7);
  terapart::io::write_tpg(graph_path, graph);

  constexpr std::uint32_t k = 8;
  constexpr double epsilon = 0.03;
  auto ctx = terapart::ContextBuilder(terapart::Preset::kTeraPart)
                 .k(k)
                 .epsilon(epsilon)
                 .seed(3)
                 .threads(1)
                 .build();
  const terapart::PartitionResult result =
      terapart::Partitioner(std::move(ctx).value()).partition(graph);

  perfbench::Claim original;
  original.blocks.assign(result.partition.begin(), result.partition.end());
  original.k = k;
  original.epsilon = epsilon;
  original.reported_cut = result.cut;

  {
    const perfbench::Verdict v = judge(graph_path, original);
    expect(v.ok, "accepts_unmodified", v.reason);
    expect(v.cut == result.cut, "accepts_unmodified", "recomputed cut differs");
  }
  {
    perfbench::Claim claim = original;
    claim.blocks[17] = k;
    const perfbench::Verdict v = judge(graph_path, claim);
    expect(!v.ok && v.reason.find("outside") != std::string::npos, "rejects_block_id_out_of_range",
           v.reason);
  }
  {
    // Fill the lightest-to-heaviest gap so one block sits exactly at L_max
    // (still a valid claim with its true cut), then move one more vertex in.
    const std::int64_t l_max =
        perfbench::max_block_weight_bound(static_cast<std::int64_t>(graph.n()), k, epsilon);
    perfbench::Claim claim = original;
    std::vector<std::int64_t> weights = weights_of(claim.blocks, k);
    const std::uint32_t target = 0;
    std::size_t u = 0;
    const auto move_one_in = [&] {
      while (claim.blocks[u] == target) {
        ++u;
      }
      --weights[claim.blocks[u]];
      claim.blocks[u] = target;
      ++weights[target];
    };
    while (weights[target] < l_max) {
      move_one_in();
    }
    perfbench::Verdict at_limit = judge(graph_path, claim);
    claim.reported_cut = at_limit.cut;
    at_limit = judge(graph_path, claim);
    expect(at_limit.ok, "accepts_block_at_l_max", at_limit.reason);

    move_one_in();
    claim.reported_cut = judge(graph_path, claim).cut;
    const perfbench::Verdict v = judge(graph_path, claim);
    expect(!v.ok && v.reason.find("exceeds L_max") != std::string::npos,
           "rejects_block_over_l_max", v.reason);
  }
  for (const int delta : {+1, -1}) {
    perfbench::Claim claim = original;
    claim.reported_cut += delta;
    const perfbench::Verdict v = judge(graph_path, claim);
    expect(!v.ok && v.reason.find("reported cut") != std::string::npos,
           "rejects_cut_off_by_" + std::to_string(delta), v.reason);
  }
  {
    perfbench::Claim claim = original;
    std::mt19937 rng(11);
    for (std::uint32_t &b : claim.blocks) {
      b = rng() % k;
    }
    claim.epsilon = 1.0; // balance is not what this test is about
    claim.reported_cut = judge(graph_path, claim).cut;
    const perfbench::Verdict v = judge(graph_path, claim);
    expect(!v.ok && v.reason.find("uniform random cut") != std::string::npos,
           "rejects_random_assignment", v.reason);
  }
  {
    perfbench::Claim claim = original;
    claim.blocks.pop_back();
    const perfbench::Verdict v = judge(graph_path, claim);
    expect(!v.ok, "rejects_short_partition", v.reason);
  }
  {
    // A truncated graph file is refused before any claim is judged.
    const std::string truncated = (dir / "truncated.tpg").string();
    std::filesystem::copy_file(graph_path, truncated,
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(truncated, std::filesystem::file_size(truncated) - 4);
    std::vector<perfbench::Verdict> verdicts;
    std::string error;
    expect(!perfbench::check_claims(truncated, {original}, verdicts, error),
           "rejects_truncated_graph", "truncated file was accepted");
  }

  if (g_failures == 0) {
    std::printf("perfbench_check_test: all checks passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
