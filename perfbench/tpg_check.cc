#include "tpg_check.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

constexpr std::uint64_t kHeaderBytes = 5 * sizeof(std::uint64_t);
/// Elements per chunk of each cursor; four cursors of this size are the
/// reader's whole buffer footprint.
constexpr std::size_t kChunkElements = 1 << 16;

/// Owns one read-only file descriptor.
class File {
public:
  explicit File(const std::string &path) : _fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~File() {
    if (_fd >= 0) {
      ::close(_fd);
    }
  }
  File(const File &) = delete;
  File &operator=(const File &) = delete;

  [[nodiscard]] int fd() const { return _fd; }

  /// Reads exactly `bytes` at `offset`; false on a short read or an error.
  bool read_at(void *out, const std::size_t bytes, const std::uint64_t offset) const {
    auto *dst = static_cast<char *>(out);
    std::size_t done = 0;
    while (done < bytes) {
      const ssize_t got = ::pread(_fd, dst + done, bytes - done,
                                  static_cast<off_t>(offset + done));
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        return false;
      }
      done += static_cast<std::size_t>(got);
    }
    return true;
  }

private:
  int _fd = -1;
};

/// Sequential reader of one array section of the file, refilled in chunks.
template <typename T> class Cursor {
public:
  Cursor(const File &file, const std::uint64_t section_offset, const std::uint64_t count)
      : _file(file), _offset(section_offset), _count(count), _buffer(kChunkElements) {}

  /// Next element; false past the end of the section or on a read error.
  bool next(T &out) {
    if (_pos == _filled) {
      if (_consumed == _count) {
        return false;
      }
      const std::uint64_t take =
          std::min<std::uint64_t>(kChunkElements, _count - _consumed);
      if (!_file.read_at(_buffer.data(), take * sizeof(T), _offset + _consumed * sizeof(T))) {
        return false;
      }
      _consumed += take;
      _filled = static_cast<std::size_t>(take);
      _pos = 0;
    }
    out = _buffer[_pos++];
    return true;
  }

private:
  const File &_file;
  std::uint64_t _offset;
  std::uint64_t _count;
  std::uint64_t _consumed = 0;
  std::vector<T> _buffer;
  std::size_t _filled = 0;
  std::size_t _pos = 0;
};

struct Header {
  std::uint64_t magic = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t has_node_weights = 0;
  std::uint64_t has_edge_weights = 0;
};

} // namespace

bool read_tpg_info(const std::string &path, TpgInfo &info, std::string &error) {
  const File file(path);
  if (file.fd() < 0) {
    error = path + ": cannot open: " + std::strerror(errno);
    return false;
  }
  struct stat st {};
  if (::fstat(file.fd(), &st) != 0) {
    error = path + ": cannot stat";
    return false;
  }
  Header header;
  if (!file.read_at(&header, sizeof(header), 0)) {
    error = path + ": shorter than a header";
    return false;
  }
  if (header.magic != kTpgMagic || header.has_node_weights > 1 || header.has_edge_weights > 1 ||
      header.n >= (1ULL << 32) || header.m >= (1ULL << 40)) {
    error = path + ": not a valid TPG header";
    return false;
  }
  std::uint64_t expected = kHeaderBytes + (header.n + 1) * 8 + header.m * 4;
  expected += header.has_node_weights * header.n * 8 + header.has_edge_weights * header.m * 8;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size != expected) {
    error = path + ": header implies " + std::to_string(expected) + " bytes, file has " +
            std::to_string(size);
    return false;
  }
  info = {header.n, header.m, header.has_node_weights != 0, header.has_edge_weights != 0, size};
  return true;
}

std::int64_t max_block_weight_bound(const std::int64_t total_weight, const std::uint32_t k,
                                    const double epsilon) {
  const std::int64_t perfect = (total_weight + k - 1) / k;
  return static_cast<std::int64_t>((1.0 + epsilon) * static_cast<double>(perfect));
}

bool check_claims(const std::string &path, const std::vector<Claim> &claims,
                  std::vector<Verdict> &verdicts, std::string &error) {
  TpgInfo info;
  if (!read_tpg_info(path, info, error)) {
    return false;
  }
  const File file(path);
  if (file.fd() < 0) {
    error = path + ": cannot open";
    return false;
  }
  const std::uint64_t offsets_at = kHeaderBytes;
  const std::uint64_t targets_at = offsets_at + (info.n + 1) * 8;
  const std::uint64_t node_weights_at = targets_at + info.m * 4;
  const std::uint64_t edge_weights_at = node_weights_at + (info.node_weights ? info.n * 8 : 0);
  Cursor<std::uint64_t> offsets(file, offsets_at, info.n + 1);
  Cursor<std::uint32_t> targets(file, targets_at, info.m);
  Cursor<std::int64_t> node_weights(file, node_weights_at, info.node_weights ? info.n : 0);
  Cursor<std::int64_t> edge_weights(file, edge_weights_at, info.edge_weights ? info.m : 0);

  // Claims whose shape is already wrong are decided up front and skipped in
  // the sweep, which may then index their blocks without bounds checks.
  const std::size_t c = claims.size();
  verdicts.assign(c, Verdict{});
  std::vector<char> sweep(c, 1);
  std::vector<std::vector<std::int64_t>> block_weights(c);
  std::vector<std::int64_t> doubled_cut(c, 0);
  for (std::size_t i = 0; i < c; ++i) {
    const Claim &claim = claims[i];
    if (claim.k == 0 || claim.blocks.size() != info.n) {
      verdicts[i].reason = "partition has " + std::to_string(claim.blocks.size()) +
                           " entries for " + std::to_string(info.n) + " vertices (k=" +
                           std::to_string(claim.k) + ")";
      sweep[i] = 0;
      continue;
    }
    for (std::uint64_t u = 0; u < info.n; ++u) {
      if (claim.blocks[u] >= claim.k) {
        verdicts[i].reason = "vertex " + std::to_string(u) + " has block id " +
                             std::to_string(claim.blocks[u]) + " outside [0, " +
                             std::to_string(claim.k) + ")";
        sweep[i] = 0;
        break;
      }
    }
    block_weights[i].assign(claim.k, 0);
  }

  std::uint64_t begin = 0;
  if (!offsets.next(begin) || begin != 0) {
    error = path + ": offsets do not start at 0";
    return false;
  }
  std::int64_t total_node_weight = 0;
  std::int64_t total_edge_weight = 0;
  for (std::uint64_t u = 0; u < info.n; ++u) {
    std::uint64_t end = 0;
    if (!offsets.next(end) || end < begin || end > info.m) {
      error = path + ": offsets not monotone within [0, m] at vertex " + std::to_string(u);
      return false;
    }
    std::int64_t weight_u = 1;
    if (info.node_weights && !node_weights.next(weight_u)) {
      error = path + ": short node-weight section";
      return false;
    }
    total_node_weight += weight_u;
    for (std::size_t i = 0; i < c; ++i) {
      if (sweep[i] != 0) {
        block_weights[i][claims[i].blocks[u]] += weight_u;
      }
    }
    for (std::uint64_t e = begin; e < end; ++e) {
      std::uint32_t v = 0;
      std::int64_t weight_e = 1;
      if (!targets.next(v) || v >= info.n) {
        error = path + ": edge " + std::to_string(e) + " has a target outside [0, n)";
        return false;
      }
      if (info.edge_weights && !edge_weights.next(weight_e)) {
        error = path + ": short edge-weight section";
        return false;
      }
      total_edge_weight += weight_e;
      for (std::size_t i = 0; i < c; ++i) {
        if (sweep[i] != 0 && claims[i].blocks[u] != claims[i].blocks[v]) {
          doubled_cut[i] += weight_e;
        }
      }
    }
    begin = end;
  }
  if (begin != info.m) {
    error = path + ": offsets end at " + std::to_string(begin) + ", not m";
    return false;
  }

  for (std::size_t i = 0; i < c; ++i) {
    Verdict &verdict = verdicts[i];
    const Claim &claim = claims[i];
    if (sweep[i] == 0) {
      continue;
    }
    verdict.swept = true;
    verdict.cut = doubled_cut[i] / 2;
    verdict.l_max = max_block_weight_bound(total_node_weight, claim.k, claim.epsilon);
    verdict.random_cut = static_cast<double>(total_edge_weight) / 2.0 *
                         (1.0 - 1.0 / static_cast<double>(claim.k));
    for (std::uint32_t b = 0; b < claim.k; ++b) {
      verdict.max_block_weight = std::max(verdict.max_block_weight, block_weights[i][b]);
    }
    if (doubled_cut[i] % 2 != 0) {
      error = path + ": odd directed cut, the graph is not symmetric";
      return false;
    }
    verdict = judge_reported_cut(verdict, claim.reported_cut);
  }
  return true;
}

Verdict judge_reported_cut(Verdict verdict, const std::int64_t reported_cut) {
  if (!verdict.swept) {
    return verdict;
  }
  verdict.ok = false;
  if (verdict.max_block_weight > verdict.l_max) {
    verdict.reason = "block weight " + std::to_string(verdict.max_block_weight) +
                     " exceeds L_max " + std::to_string(verdict.l_max);
  } else if (verdict.cut != reported_cut) {
    verdict.reason = "reported cut " + std::to_string(reported_cut) + " != recomputed cut " +
                     std::to_string(verdict.cut);
  } else if (!(static_cast<double>(verdict.cut) < verdict.random_cut)) {
    verdict.reason = "cut " + std::to_string(verdict.cut) +
                     " is not below the uniform random cut " + std::to_string(verdict.random_cut);
  } else {
    verdict.ok = true;
    verdict.reason.clear();
  }
  return verdict;
}

bool read_blocks(const std::string &path, const std::uint64_t n,
                 std::vector<std::uint32_t> &blocks, std::string &error) {
  const File file(path);
  struct stat st {};
  if (file.fd() < 0 || ::fstat(file.fd(), &st) != 0) {
    error = path + ": cannot open partition";
    return false;
  }
  if (static_cast<std::uint64_t>(st.st_size) != n * sizeof(std::uint32_t)) {
    error = path + ": partition file has " + std::to_string(st.st_size) + " bytes, expected " +
            std::to_string(n * sizeof(std::uint32_t));
    return false;
  }
  blocks.resize(n);
  if (n > 0 && !file.read_at(blocks.data(), n * sizeof(std::uint32_t), 0)) {
    error = path + ": short partition read";
    return false;
  }
  return true;
}

} // namespace perfbench
