// pr_perfbench: runs one failure-sweep workload and prints its metrics.
//
//   pr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--tiny] [--corrupt-check] [--scratch DIR]
//                [--commit ID] [--source-sha256 HEX]
//
// Standard output carries three JSON lines: the host record, the output
// checks with the ungated outputs, and last the result object
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones.
#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& detail) {
  std::cerr << "pr_perfbench: " << detail << "\n"
            << "usage: pr_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "                    [--tiny] [--corrupt-check] [--scratch DIR]\n"
            << "                    [--commit ID] [--source-sha256 HEX]\n"
            << "workloads: storm-geant single-link-isp512 repair-isp2048\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(std::string(flag) + " expects a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        o.workload = value();
      } else if (flag == "--seed") {
        o.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace expects 0 or 1");
        o.trace = v == "1";
      } else if (flag == "--tiny") {
        o.tiny = true;
      } else if (flag == "--corrupt-check") {
        o.corrupt = true;
      } else if (flag == "--scratch") {
        o.scratch = value();
      } else if (flag == "--commit") {
        o.commit = value();
      } else if (flag == "--source-sha256") {
        o.source_sha256 = value();
      } else {
        usage("unknown flag '" + std::string(flag) + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag));
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds must lie in (0, 600]");
  return o;
}

std::string host_line(const Options& o) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(PR_OBS_DISABLED)
  const bool obs_disabled = true;
#else
  const bool obs_disabled = false;
#endif
  std::ostringstream out;
  out << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"affinity_cpus\": " << affinity
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"pr_obs_disabled\": " << (obs_disabled ? "true" : "false")
      << ", \"commit\": " << json_string(o.commit)
      << ", \"source_sha256\": " << json_string(o.source_sha256)
      << "}, \"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
      << ", \"seconds\": " << json_number(o.seconds)
      << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"size\": " << json_string(o.tiny ? "tiny" : "full") << "}";
  return out.str();
}

std::string checks_line(const Report& r) {
  std::ostringstream out;
  out << "{\"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = *r.checks[i];
    out << (i == 0 ? "" : ", ") << "{\"name\": " << json_string(c.name())
        << ", \"executed\": " << c.executed() << ", \"mismatches\": " << c.mismatches()
        << ", \"first_mismatch\": " << json_string(c.first_mismatch()) << "}";
  }
  out << "], \"outputs\": {";
  for (std::size_t i = 0; i < r.outputs.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(r.outputs[i].first) << ": "
        << r.outputs[i].second;
  }
  out << "}}";
  return out.str();
}

/// The result line: every metric of the run's kind, by name with its unit.
/// Per-layer metrics a workload does not exercise read 0; a missing
/// end-to-end metric is a driver bug.
std::string result_line(const Report& r, bool trace) {
  std::map<std::string, double> values;
  for (const auto& [name, value] : r.values) {
    if (!values.emplace(name, value).second) {
      throw std::logic_error("metric reported twice: " + name);
    }
  }
  bool correct = r.failed == 0 && !r.checks.empty();
  for (const auto& c : r.checks) correct = correct && c->passed();

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
      << r.attempted << ", \"failed\": " << r.failed << ", \"metrics\": {";
  const auto& specs = trace ? per_layer_specs() : end_to_end_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    if (it == values.end() && !trace) {
      throw std::logic_error(std::string("end-to-end metric not measured: ") +
                             specs[i].name);
    }
    out << (i == 0 ? "" : ", ") << json_string(specs[i].name)
        << ": {\"value\": " << json_number(it == values.end() ? 0.0 : it->second)
        << ", \"unit\": " << json_string(specs[i].unit) << "}";
    if (it != values.end()) values.erase(it);
  }
  out << "}}";
  if (!values.empty()) {
    throw std::logic_error("metric outside the run's metric list: " + values.begin()->first);
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const auto runner = find_workload(options.workload);
  if (runner == nullptr) usage("unknown workload '" + options.workload + "'");
  try {
    std::filesystem::create_directories(options.scratch);
    std::cout << host_line(options) << std::endl;
    Report report(options);
    runner(options, report);
    std::cout << checks_line(report) << "\n" << result_line(report, options.trace) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "pr_perfbench: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
