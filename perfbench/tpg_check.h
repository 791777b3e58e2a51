/// @file tpg_check.h
/// @brief The benchmark's independent output check: a streaming `.tpg`
/// reader of its own (POSIX pread over fixed-size chunks, no code shared with
/// the partitioner) that recomputes the edge cut and block weights of any
/// number of partitions in one pass over the file, without ever holding the
/// CSR arrays in memory.
///
/// TPG layout (little-endian, as written by the partitioner's graph I/O):
///   header: magic, n, m (directed edges), has_node_weights, has_edge_weights
///           — five uint64
///   offsets: (n + 1) x uint64
///   targets: m x uint32
///   node weights: n x int64 (only if has_node_weights)
///   edge weights: m x int64 (only if has_edge_weights)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kTpgMagic = 0x5452504731ULL;

struct TpgInfo {
  std::uint64_t n = 0;
  std::uint64_t m = 0; ///< directed edges (each undirected edge stored twice)
  bool node_weights = false;
  bool edge_weights = false;
  std::uint64_t file_bytes = 0;
};

/// Reads the header and validates it against the file size. Returns false
/// and fills `error` when the file is missing, short, or inconsistent.
bool read_tpg_info(const std::string &path, TpgInfo &info, std::string &error);

/// One partition to check: a block id per vertex, the k and epsilon it was
/// requested with, and the cut the partitioner reported for it.
struct Claim {
  std::vector<std::uint32_t> blocks;
  std::uint32_t k = 0;
  double epsilon = 0.0;
  std::int64_t reported_cut = 0;
};

struct Verdict {
  bool ok = false;
  bool swept = false;            ///< cut and block weights were recomputed
  std::string reason;            ///< empty when ok
  std::int64_t cut = 0;          ///< recomputed (each undirected edge once)
  std::int64_t max_block_weight = 0;
  std::int64_t l_max = 0;        ///< (1 + epsilon) * ceil(W / k), truncated
  double random_cut = 0.0;       ///< expected cut of a uniform assignment
};

/// L_max = (1 + epsilon) * ceil(W / k), truncated to an integer — the
/// balance constraint the partitioner promises to meet.
std::int64_t max_block_weight_bound(std::int64_t total_weight, std::uint32_t k, double epsilon);

/// Streams `path` once and checks every claim:
///  - the claim has one block id per vertex, each in [0, k);
///  - every block weight is <= L_max;
///  - the reported cut equals the recomputed cut;
///  - the cut is strictly below (W_e / 2) * (1 - 1/k), the expected cut of a
///    uniform random assignment (W_e = total directed edge weight, = m for
///    unweighted graphs).
/// Structural faults of the file itself (non-monotone offsets, targets out
/// of range) fail the whole check: returns false with `error` set.
bool check_claims(const std::string &path, const std::vector<Claim> &claims,
                  std::vector<Verdict> &verdicts, std::string &error);

/// Re-judges a swept verdict for another reported cut of the same
/// partition (bit-identical repeats share one sweep). Verdicts decided
/// before the sweep (wrong shape, block id out of range) are returned as is.
Verdict judge_reported_cut(Verdict verdict, std::int64_t reported_cut);

/// Reads a partition file written by the benchmark: exactly n uint32 block
/// ids. Returns false on a short, long or unreadable file.
bool read_blocks(const std::string &path, std::uint64_t n, std::vector<std::uint32_t> &blocks,
                 std::string &error);

} // namespace perfbench
