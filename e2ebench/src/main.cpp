// e2ebench — the HyCiM end-to-end benchmark program.
//
//   e2ebench --workload paper_sweep|anneal_large|service_mix --seed N
//            --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 sets the workload up three times (setup_s is the median), then
// measures the end-to-end metrics for at least S seconds.  --trace 1 sets up
// once and runs the workload's fixed unit of work untraced, then as a
// decomposed replay with tracing off and on, checks that all three agree
// bit for bit, and reports the per-layer metrics and the tracing overhead.
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace e2e;

constexpr int kSetupRepetitions = 3;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload paper_sweep|anneal_large|"
               "service_mix --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Report& r) {
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::unique_ptr<Workload> workload;
  if (options.workload == "paper_sweep") {
    workload = make_paper_sweep();
  } else if (options.workload == "anneal_large") {
    workload = make_anneal_large();
  } else if (options.workload == "service_mix") {
    workload = make_service_mix();
  } else {
    usage("unknown workload '" + options.workload + "'");
  }

  try {
    const int repetitions = options.trace ? 1 : kSetupRepetitions;
    std::vector<double> setup_times;
    for (int i = 0; i < repetitions; ++i) {
      const auto start = Clock::now();
      workload->setup(options);
      setup_times.push_back(seconds_since(start));
    }
    Report report =
        options.trace ? workload->traced(options) : workload->measure(options);
    if (!options.trace) {
      report.metrics.insert(report.metrics.begin(),
                            {"setup_s", median(setup_times), "s"});
      report.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
    report.note("fail_frac " +
                number(report.attempted == 0
                           ? 0.0
                           : static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)) +
                " ratio (" + std::to_string(report.failed) + " of " +
                std::to_string(report.attempted) + " operations)");
    for (Metric& m : report.metrics) {
      if (!std::isfinite(m.value)) {
        report.fail_check("metric " + m.name + " is not finite");
        m.value = 0.0;
      }
    }
    std::cout << "e2ebench " << options.workload << " seed=" << options.seed
              << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0) << "\n";
    for (const std::string& line : report.lines) std::cout << line << "\n";
    for (const Metric& m : report.metrics) {
      std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
    }
    print_result(report);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
}
