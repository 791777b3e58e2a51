// perfbench_check: the independent output check as its own process.
//
//   perfbench_check GRAPH.tpg CLAIMS.tsv
//
// CLAIMS.tsv holds one claim per line: "<op> <partition file> <k> <epsilon>
// <reported cut>", partition files as written by perfbench (n uint32 block
// ids). Claims naming the same file, k and epsilon share one sweep. Prints
// one line per claim, "<op> ok <cut>" or "<op> fail <reason>", in claim
// order. Exits 0 when every claim was judged (passed or not), 2 when the
// graph or the claims file cannot be read.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "tpg_check.h"

int main(int argc, char **argv) {
  if (argc != 3) {
    std::cerr << "usage: perfbench_check GRAPH.tpg CLAIMS.tsv\n";
    return 2;
  }
  const std::string graph = argv[1];
  perfbench::TpgInfo info;
  std::string error;
  if (!perfbench::read_tpg_info(graph, info, error)) {
    std::cerr << error << "\n";
    return 2;
  }
  std::ifstream in(argv[2]);
  if (!in) {
    std::cerr << argv[2] << ": cannot open claims\n";
    return 2;
  }

  struct Line {
    std::string op;
    std::int64_t reported_cut = 0;
    std::size_t unique = 0;
  };
  std::vector<Line> lines;
  std::vector<perfbench::Claim> unique;
  std::vector<std::string> load_errors;
  std::map<std::tuple<std::string, std::uint32_t, double>, std::size_t> index;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) {
      continue;
    }
    std::istringstream fields(text);
    Line line;
    std::string file;
    std::uint32_t k = 0;
    double epsilon = 0.0;
    if (!(fields >> line.op >> file >> k >> epsilon >> line.reported_cut)) {
      std::cerr << argv[2] << ": malformed claim line: " << text << "\n";
      return 2;
    }
    const auto key = std::make_tuple(file, k, epsilon);
    const auto [it, inserted] = index.emplace(key, unique.size());
    if (inserted) {
      perfbench::Claim claim;
      claim.k = k;
      claim.epsilon = epsilon;
      std::string read_error;
      if (!perfbench::read_blocks(file, info.n, claim.blocks, read_error)) {
        claim.blocks.clear(); // judged as a shape mismatch; the read error is reported
      }
      load_errors.push_back(read_error);
      unique.push_back(std::move(claim));
    }
    line.unique = it->second;
    lines.push_back(std::move(line));
  }

  std::vector<perfbench::Verdict> verdicts;
  if (!perfbench::check_claims(graph, unique, verdicts, error)) {
    std::cerr << error << "\n";
    return 2;
  }
  for (const Line &line : lines) {
    const perfbench::Verdict verdict =
        perfbench::judge_reported_cut(verdicts[line.unique], line.reported_cut);
    if (verdict.ok) {
      std::printf("%s ok %lld\n", line.op.c_str(), static_cast<long long>(verdict.cut));
    } else {
      const std::string &load_error = load_errors[line.unique];
      std::printf("%s fail %s\n", line.op.c_str(),
                  (load_error.empty() ? verdict.reason : load_error).c_str());
    }
  }
  return 0;
}
