// perfbench: the repository benchmark.
//
//   perfbench --workload <dense-tcp|sync-n64|chain-rw|sparse-zipf> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <perfetto.json>]
//   perfbench --selftest
//
// Prints every metric by name with its unit and sample count, then, as the
// last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics of an untraced run (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). Exits 1 when an output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace perfbench {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::e2e(std::string name, double value, std::string unit, std::string note) {
  e2e_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::layer(std::string name, double value, std::string unit, std::string note) {
  layers_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::detail(std::string name, double value, std::string unit, std::string note) {
  details_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::info(std::string name, double value, std::string unit, std::string note) {
  info_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::layer_p50(const std::string& name, std::vector<double> samples_us) {
  if (samples_us.empty()) return;
  const std::string n = "p50, n=" + std::to_string(samples_us.size());
  layer(name, percentile(samples_us, 0.50), "us", n);
}

void Report::detail_p50(const std::string& name, std::vector<double> samples_us) {
  if (samples_us.empty()) return;
  const std::string n = "p50, n=" + std::to_string(samples_us.size());
  detail(name, percentile(samples_us, 0.50), "us", n);
}

void Report::detail_latency(const std::string& prefix, std::vector<double> samples_us) {
  if (samples_us.empty()) return;
  const std::string n = "n=" + std::to_string(samples_us.size());
  detail(prefix + "_p50_us", percentile(samples_us, 0.50), "us", n);
  detail(prefix + "_p99_us", percentile(samples_us, 0.99), "us", n);
}

void Report::print(const RunOptions& opts) const {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  for (const Metric& m : e2e_) {
    std::printf("# end-to-end %-28s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  for (const Metric& m : info_) {
    std::printf("# end-to-end %-28s %14.4f %-6s %s (this workload only)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : layers_) {
    std::printf("# per-layer  %-28s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  for (const Metric& m : details_) {
    std::printf("# layer      %-28s %14.4f %-6s %s (this workload only)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.note.c_str());
  }
  std::printf("# operations attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted_), static_cast<unsigned long long>(failed_));
  for (const std::string& f : failures_) std::printf("# CHECK FAILED: %s\n", f.c_str());
  if (failures_.empty()) std::printf("# all output checks passed\n");

  const std::vector<Metric>& out = opts.trace ? layers_ : e2e_;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                out[i].name.c_str(), out[i].value, out[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Trials::add(const std::string& name, double value, const std::string& unit,
                 std::uint64_t samples) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.name == name; });
  if (it == entries_.end()) it = entries_.insert(entries_.end(), Entry{name, unit, {}, 0});
  it->values.push_back(value);
  it->samples += samples;
}

void Trials::add_latency(const std::string& prefix, std::vector<double> samples_us) {
  if (samples_us.empty()) return;
  const std::size_t n = samples_us.size();
  add(prefix + "_p50_us", percentile(samples_us, 0.50), "us", n);
  add(prefix + "_p99_us", percentile(samples_us, 0.99), "us", n);
}

void Trials::report(Report& report, As as) const {
  for (const Entry& e : entries_) {
    std::vector<double> v = e.values;
    const std::string note = "median of " + std::to_string(v.size()) + " trials, n=" +
                             std::to_string(e.samples);
    const double med = percentile(v, 0.5);
    switch (as) {
      case As::kEndToEnd: report.e2e(e.name, med, e.unit, note); break;
      case As::kInfo: report.info(e.name, med, e.unit, note); break;
    }
  }
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dense-tcp|sync-n64|chain-rw|"
               "sparse-zipf> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       perfbench --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0.0) || opts.seconds > 120.0) usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (a == "--trace-out") {
      opts.trace_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  Report report;
  if (opts.workload == "dense-tcp") {
    run_dense_tcp(opts, report);
  } else if (opts.workload == "sync-n64") {
    run_sync_n64(opts, report);
  } else if (opts.workload == "chain-rw") {
    run_chain_rw(opts, report);
  } else if (opts.workload == "sparse-zipf") {
    run_sparse_zipf(opts, report);
  } else {
    usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  report.print(opts);
  return report.correct() ? 0 : 1;
}
