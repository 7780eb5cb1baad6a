#include "cop/qkp_io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hycim::cop {

namespace {

long long next_ll(std::istream& in, const char* what) {
  long long v;
  if (!(in >> v)) {
    throw std::runtime_error(std::string("read_qkp: missing ") + what);
  }
  return v;
}

}  // namespace

QkpInstance read_qkp(std::istream& in) {
  QkpInstance inst;
  // The name is the first non-blank line: published archive files
  // sometimes lead with empty lines, and name lines may be padded with
  // spaces/tabs on either side.
  for (;;) {
    if (!std::getline(in, inst.name)) {
      throw std::runtime_error("read_qkp: missing name line");
    }
    const auto first = inst.name.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;  // blank line, keep looking
    const auto last = inst.name.find_last_not_of(" \t\r");
    inst.name = inst.name.substr(first, last - first + 1);
    break;
  }
  const long long n = next_ll(in, "n");
  if (n <= 0 || n > 100000) throw std::runtime_error("read_qkp: bad n");
  inst.n = static_cast<std::size_t>(n);
  inst.profits.assign(inst.n * inst.n, 0);
  inst.weights.assign(inst.n, 0);

  for (std::size_t i = 0; i < inst.n; ++i) {
    inst.set_profit(i, i, next_ll(in, "diagonal profit"));
  }
  for (std::size_t i = 0; i + 1 < inst.n; ++i) {
    for (std::size_t j = i + 1; j < inst.n; ++j) {
      inst.set_profit(i, j, next_ll(in, "pairwise profit"));
    }
  }
  const long long marker = next_ll(in, "constraint marker");
  if (marker != 0) {
    throw std::runtime_error("read_qkp: unsupported constraint type marker");
  }
  inst.capacity = next_ll(in, "capacity");
  for (std::size_t i = 0; i < inst.n; ++i) {
    inst.weights[i] = next_ll(in, "weight");
  }
  inst.validate();
  return inst;
}

QkpInstance read_qkp_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_qkp_file: cannot open " + path);
  // Parse errors (truncated files, non-numeric fields, bad markers) and
  // validation errors (a weight < 1, a negative capacity) carry the
  // offending path and keep their type — a suite load must fail loudly and
  // debuggably.
  const auto in_path = [&](const std::exception& e) {
    return std::string(e.what()) + " (in " + path + ")";
  };
  try {
    return read_qkp(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(in_path(e));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(in_path(e));
  }
}

void write_qkp(std::ostream& out, const QkpInstance& inst) {
  out << inst.name << "\n" << inst.n << "\n";
  for (std::size_t i = 0; i < inst.n; ++i) {
    out << inst.profit(i, i) << (i + 1 == inst.n ? "\n" : " ");
  }
  for (std::size_t i = 0; i + 1 < inst.n; ++i) {
    for (std::size_t j = i + 1; j < inst.n; ++j) {
      out << inst.profit(i, j) << (j + 1 == inst.n ? "\n" : " ");
    }
  }
  out << "\n0\n" << inst.capacity << "\n";
  for (std::size_t i = 0; i < inst.n; ++i) {
    out << inst.weights[i] << (i + 1 == inst.n ? "\n" : " ");
  }
}

void write_qkp_file(const std::string& path, const QkpInstance& inst) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_qkp_file: cannot open " + path);
  write_qkp(out, inst);
}

std::vector<QkpInstance> load_qkp_directory(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("load_qkp_directory: not a directory: " + dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path().string());
  }
  if (paths.empty()) {
    // An empty suite is a misconfigured benchmark, not a valid sweep of
    // zero instances — fail with the path instead of returning nothing.
    throw std::runtime_error("load_qkp_directory: no instance files in " +
                             dir);
  }
  std::sort(paths.begin(), paths.end());
  std::vector<QkpInstance> suite;
  suite.reserve(paths.size());
  for (const auto& path : paths) {
    // read_qkp_file already stamps the path into parse errors.
    suite.push_back(read_qkp_file(path));
  }
  return suite;
}

}  // namespace hycim::cop
