// arbbench: runs one benchmark workload and prints its metrics.
//
//   arbbench --workload NAME --seed N --seconds S --trace 0|1
//            --workdir DIR --daemon PATH [--trace-out PATH]
//
// Workloads: pipeline, ingest_mapped, serve_mixed.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics} with metrics as name -> value; the line before it holds sample
// counts and exact counts. The exit code is nonzero when any op failed its
// correctness check.
// perfbench/run.py builds this binary and is the command to use.
#include <charconv>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"

namespace perfbench {

std::map<std::string, double> SpanLog::self_ms(std::size_t first) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end - spans_[i].start) / 1e6;
    const int p = spans_[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= first) {
      self[static_cast<std::size_t>(p)] -=
          static_cast<double>(spans_[i].end - spans_[i].start) / 1e6;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

double SpanLog::children_ms(int index) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent == index) total += static_cast<double>(s.end - s.start) / 1e6;
  }
  return total;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent << "}\n";
  }
}

void OpSeries::add_op(const std::map<std::string, double>& values) {
  ops_.push_back(values);
}

double OpSeries::median_of(const std::string& name) const {
  std::vector<double> v;
  for (const auto& op : ops_) {
    const auto it = op.find(name);
    v.push_back(it == op.end() ? 0.0 : it->second);
  }
  return median(v);
}

double chrome_trace_total_ms(const std::string& json, const std::string& name) {
  const std::string needle = "{\"name\":\"" + name + "\"";
  double total_us = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    const std::size_t dur = json.find("\"dur\":", pos);
    if (dur == std::string::npos) break;
    total_us += std::strtod(json.c_str() + dur + 6, nullptr);
  }
  return total_us / 1e3;
}

}  // namespace perfbench

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

int usage() {
  std::cerr << "usage: arbbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR --daemon PATH [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--daemon") {
      args.daemon = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.workdir.empty() || args.seconds <= 0) {
    return usage();
  }

  perfbench::Report report;
  try {
    if (args.workload == "pipeline") {
      perfbench::run_pipeline(args, report);
    } else if (args.workload == "ingest_mapped") {
      perfbench::run_ingest(args, report);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve(args, report);
    } else {
      std::cerr << "arbbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "arbbench: " << e.what() << "\n";
    return 3;
  }
  if (report.attempted == 0) {
    std::cerr << "arbbench: no op was attempted\n";
    return 3;
  }

  const double error_rate = static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted);
  std::cout << "detail {\"workload\":\"" << args.workload
            << "\",\"seed\":" << args.seed << ",\"trace\":" << args.trace
            << ",\"error_rate\":" << number(error_rate);
  for (const auto& [name, text] : report.detail_text) {
    std::cout << ",\"" << name << "\":\"" << text << '"';
  }
  for (const auto& [name, value] : report.detail) {
    std::cout << ",\"" << name << "\":" << number(value);
  }
  std::cout << "}\n{\"correct\":" << (report.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << report.attempted
            << ",\"failed\":" << report.failed << ",\"metrics\":{";
  const char* separator = "";
  for (const auto& [name, value] : report.metrics) {
    std::cout << separator << '"' << name << "\":" << number(value);
    separator = ",";
  }
  std::cout << "}}\n" << std::flush;
  return report.failed == 0 ? 0 : 1;
}
