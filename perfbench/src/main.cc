/**
 * @file
 * yac_perfbench: runs one benchmark workload for a fixed time and
 * prints its metrics.
 *
 *   yac_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--smoke 1] [--yacd PATH] [--out-dir DIR]
 *
 * Untraced (--trace 0) it prints the end-to-end metrics; traced
 * (--trace 1) it alternates untraced and traced operations, all at one
 * thread, prints the per-layer metrics and the tracing overhead, and
 * writes the spans as Chrome trace JSON under --out-dir. The last
 * stdout line is one JSON object {"correct", "attempted", "failed",
 * "metrics"}.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "host.hh"
#include "util/parallel.hh"

namespace perfbench
{
namespace
{

/** Set-up repeats per run; the median is reported. */
constexpr int kSetupRepeats = 3;
/** Timed operations per run, at least, whatever --seconds says. */
constexpr std::size_t kMinOps = 3;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"cpu_s", "s"},           {"peak_rss_mb", "MB"},
    {"chips_per_s", "chips/s"}, {"ops_per_s", "1/s"},
};

const MetricDef kPerLayer[] = {
    {"variation.sample_ns_per_chip", "ns/chip"},
    {"variation.chips_sampled", "count"},
    {"variation.wall_share", "ratio"},
    {"circuit.eval_ns_per_chip", "ns/chip"},
    {"circuit.wall_share", "ratio"},
    {"yield.loss_table_ms", "ms"},
    {"yield.census_ms", "ms"},
    {"yield.binning_ms", "ms"},
    {"yield.test_floor_ms", "ms"},
    {"yield.cpi_pricing_ms", "ms"},
    {"yield.population_bytes_per_chip", "B/chip"},
    {"yield.wall_share", "ratio"},
    {"sim.runs", "count"},
    {"sim.ms_per_run", "ms"},
    {"sim.ns_per_inst", "ns/inst"},
    {"sim.baseline_ms", "ms"},
    {"sim.cache_hit_ratio", "ratio"},
    {"sim.cache_lookups", "count"},
    {"sim.distinct_configs_per_chip", "ratio"},
    {"sim.wall_share", "ratio"},
    {"service.pilot_s", "s"},
    {"service.orchestrate_s", "s"},
    {"service.worker_cpu_s", "s"},
    {"service.worker_busy_share", "ratio"},
    {"service.worker_peak_rss_mb", "MB"},
    {"service.chunk_ns_per_chip", "ns/chip"},
    {"service.checkpoint_save_ms", "ms"},
    {"service.checkpoint_load_ms", "ms"},
    {"service.checkpoint_bytes", "B"},
    {"service.merge_ms", "ms"},
    {"service.wall_share", "ratio"},
    {"opt.probe_ms_p50", "ms"},
    {"opt.probe_ms_p90", "ms"},
    {"opt.probe_samples", "count"},
    {"opt.campaigns_run", "count"},
    {"opt.probes_requested", "count"},
    {"opt.cache_hit_ratio", "ratio"},
    {"opt.population_reuse_ratio", "ratio"},
    {"opt.wall_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

/** Layers whose self-time share of each traced operation is reported. */
const char *const kLayers[] = {"variation", "circuit", "yield",
                               "sim",       "service", "opt"};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "yac_perfbench: %s\nusage: yac_perfbench --workload "
                 "paper_report|sharded_screen|cpi_exact|opt_search "
                 "--seed N --seconds S --trace 0|1 [--smoke 0|1] "
                 "[--yacd PATH] [--out-dir DIR]\n",
                 msg);
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions opts;
    opts.outDir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace" || flag == "--smoke") {
            if (value != "0" && value != "1")
                usage((flag + " wants 0 or 1").c_str());
            (flag == "--trace" ? opts.trace : opts.smoke) = value == "1";
        } else if (flag == "--yacd") {
            opts.yacd = value;
        } else if (flag == "--out-dir") {
            opts.outDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + flag + ": " + value).c_str());
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

/** A workload and the threads of its untraced operations.
 *  paper_report runs as users run campaigns, on every core. cpi_exact
 *  prices its four chunks in parallel, so concurrent SimCache misses
 *  show. sharded_screen's parallelism is its three worker processes.
 *  opt_search spreads each probe campaign over every core too: at one
 *  thread its operations swing with the load on whichever core it
 *  lands on. */
struct WorkloadDef
{
    const char *name;
    std::unique_ptr<Workload> (*make)(const RunOptions &);
    std::size_t threads;
};

const WorkloadDef kWorkloads[] = {
    {"paper_report", makePaperReport, 4},
    {"sharded_screen", makeShardedScreen, 1},
    {"cpi_exact", makeCpiExact, 4},
    {"opt_search", makeOptSearch, 4},
};

const WorkloadDef &
findWorkload(const std::string &name)
{
    for (const WorkloadDef &def : kWorkloads) {
        if (name == def.name)
            return def;
    }
    usage(("unknown workload " + name).c_str());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank =
        std::size_t(std::ceil(p * double(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Everything a run measured, before it is printed. */
struct Tally
{
    std::uint64_t reference = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    /** Fold one timed operation in, checking it against the reference. */
    void
    fold(const OpResult &op)
    {
        attempted += op.attempted;
        if (!op.error.empty() || op.digest != reference) {
            std::fprintf(stderr, "operation failed: %s\n",
                         op.error.empty() ? "output differs from the "
                                            "reference operation"
                                          : op.error.c_str());
            failed += op.attempted;
            correct = false;
        } else {
            failed += op.failed;
            correct = correct && op.failed == 0;
        }
    }
};

void
printMetric(std::string &json, const char *name, double value,
            const char *unit, bool &correct)
{
    if (!std::isfinite(value)) {
        std::fprintf(stderr, "metric %s is not finite\n", name);
        correct = false;
        value = 0.0;
    }
    std::printf("metric %-34s %.17g %s\n", name, value, unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name, value, unit);
    json += buf;
}

int
runBenchmark(const RunOptions &opts)
{
    // Never more threads than the host has. A traced run stays at one
    // thread: spans are recorded on the calling thread, and its
    // untraced operations must run like its traced ones for the
    // overhead figure.
    const WorkloadDef &def = findWorkload(opts.workload);
    const std::size_t threads = opts.trace
        ? 1
        : std::min<std::size_t>(
              def.threads,
              std::max(1u, std::thread::hardware_concurrency()));
    yac::parallel::setThreads(threads);
    std::unique_ptr<Workload> workload = def.make(opts);

    // Set-up is everything before the timed work: building the
    // workload's objects and one untimed reference operation, so caches
    // fill and lazy set-up finishes before timing. It runs several
    // times from scratch; each time must reproduce the same reference
    // digest, which every timed operation must then match.
    LayerTrace plain(false);
    LayerTrace traced(true);
    Tally tally;
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupRepeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        workload->setup();
        const OpResult ref = workload->run(plain);
        setup_s.push_back(secondsSince(t0));
        if (!ref.error.empty() || (r > 0 && ref.digest != tally.reference)) {
            std::fprintf(stderr, "reference operation failed: %s\n",
                         ref.error.empty() ? "set-ups disagree"
                                           : ref.error.c_str());
            return 1;
        }
        tally.reference = ref.digest;
    }

    std::vector<double> walls, traced_walls, chip_rates, op_rates;
    std::map<std::string, std::vector<double>> counts_per_s;
    std::map<std::string, std::vector<double>> layer_values;
    std::vector<double> probe_ms;
    std::size_t timed_spans = 0;

    const double cpu0 = cpuSeconds();
    const auto loop_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0;
         walls.size() < kMinOps || secondsSince(loop_start) < opts.seconds;
         ++i) {
        // A traced run alternates untraced and traced operations, so
        // the tracing overhead is measured in one process.
        const bool trace_this = opts.trace && i % 2 == 1;
        LayerTrace &trace = trace_this ? traced : plain;
        const std::size_t spans_before = traced.spanCount();
        trace.beginOp();
        const auto t0 = std::chrono::steady_clock::now();
        OpResult op = workload->run(trace);
        const double wall = secondsSince(t0);
        const OpSpans spans = trace.endOp();
        tally.fold(op);
        if (!trace_this) {
            walls.push_back(wall);
            chip_rates.push_back(op.chips / wall);
            op_rates.push_back(double(op.attempted) / wall);
            for (const auto &[name, n] : op.counts)
                counts_per_s[name].push_back(n / wall);
            continue;
        }
        traced_walls.push_back(wall);
        workload->addLayerMetrics(spans, op);
        timed_spans += traced.spanCount() - spans_before;
        for (const char *layer : kLayers) {
            const auto it = spans.selfNs.find(layer);
            op.layer[std::string(layer) + ".wall_share"] =
                it == spans.selfNs.end() ? 0.0 : it->second / spans.wallNs;
        }
        const auto un = spans.selfNs.find("unattributed");
        op.layer["trace.unattributed_share"] =
            un == spans.selfNs.end() ? 0.0 : un->second / spans.wallNs;
        const auto probes = spans.durationsNs.find("opt.evaluate");
        if (probes != spans.durationsNs.end()) {
            for (double ns : probes->second)
                probe_ms.push_back(1e-6 * ns);
        }
        for (const auto &[name, value] : op.layer)
            layer_values[name].push_back(value);
    }
    const double cpu_per_op = (cpuSeconds() - cpu0) /
        double(walls.size() + traced_walls.size());

    std::printf("host %s\n", hostFingerprintJson().c_str());
    std::printf("engine %s\n", resolvedEngineJson().c_str());
    std::printf("workload %s seed %llu threads %zu: %d set-ups + %zu "
                "untraced + %zu traced operations\n",
                opts.workload.c_str(), (unsigned long long)opts.seed,
                threads, kSetupRepeats, walls.size(), traced_walls.size());

    std::printf("op wall_s:");
    for (double w : walls)
        std::printf(" %.4f", w);
    std::printf("\n");

    std::string json;
    bool correct = tally.correct;
    if (!opts.trace) {
        const double values[] = {
            median(setup_s),
            median(walls),
            cpu_per_op,
            std::max(selfPeakRssMb(), childPeakRssMb()),
            median(chip_rates),
            median(op_rates),
        };
        std::size_t k = 0;
        for (const MetricDef &m : kEndToEnd)
            printMetric(json, m.name, values[k++], m.unit, correct);
        // Workload-specific throughputs; printed, not part of the
        // metrics every workload shares.
        for (const auto &[name, rates] : counts_per_s)
            std::printf("metric %-34s %.17g %s\n", name.c_str(),
                        median(rates), "1/s");
    } else {
        layer_values["trace.overhead_s"] = {median(traced_walls) -
                                            median(walls)};
        layer_values["trace.spans"] = {
            double(timed_spans) / double(traced_walls.size())};
        if (!probe_ms.empty()) {
            layer_values["opt.probe_ms_p50"] = {percentile(probe_ms, 0.5)};
            layer_values["opt.probe_ms_p90"] = {percentile(probe_ms, 0.9)};
            layer_values["opt.probe_samples"] = {double(probe_ms.size())};
        }
        for (const MetricDef &m : kPerLayer) {
            const auto it = layer_values.find(m.name);
            printMetric(json, m.name,
                        it == layer_values.end() ? 0.0
                                                 : median(it->second),
                        m.unit, correct);
        }
        const std::string path = (std::filesystem::path(opts.outDir) /
                                  ("trace_" + opts.workload + "_seed" +
                                   std::to_string(opts.seed) + ".json"))
                                     .string();
        traced.writeChromeTrace(path);
        std::printf("chrome trace: %s\n", path.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                (unsigned long long)tally.attempted,
                (unsigned long long)tally.failed, json.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::runBenchmark(perfbench::parseArgs(argc, argv));
}
