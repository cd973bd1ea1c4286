/**
 * @file
 * Shared pieces of the yac benchmark harness: run options, the
 * workload interface, the per-operation result, an output digest and
 * getrusage helpers.
 *
 * A run sets its workload up several times from scratch, each time
 * followed by one untimed reference operation, then repeats the
 * operation for the requested seconds. Every reference and timed
 * operation must reproduce the first reference digest bit for bit,
 * which is how the benchmark checks the program's outputs on any seed.
 */

#ifndef YAC_PERFBENCH_BENCH_HH
#define YAC_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>

#include "layer_trace.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;  //!< seconds-long sizes for the harness's own tests
    std::string yacd;    //!< worker binary for sharded_screen
    std::string outDir;  //!< scratch files and the Chrome trace
};

/** FNV-1a over the bytes of a workload's outputs. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    Digest &
    add(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&value, sizeof value);
        return *this;
    }

    Digest &
    add(const std::string &s)
    {
        bytes(s.data(), s.size());
        return add(s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** What one operation produced. */
struct OpResult
{
    std::uint64_t digest = 0; //!< compared with the reference operation
    std::string error;        //!< an in-operation check that failed

    /** Operations inside this one (a probe run holds many probes). */
    std::uint64_t attempted = 1;
    /** Of those, how many failed their own check. */
    std::uint64_t failed = 0;

    double chips = 0.0; //!< chips completed (priced, on cpi_exact)

    /** Per-layer values of a traced operation, by metric name. */
    std::map<std::string, double> layer;

    /** Workload-specific end-to-end counts (e.g. simulated insts). */
    std::map<std::string, double> counts;
};

/** One benchmark workload: set up once, then run operations. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything the timed operations need. Called several
     *  times; each call replaces the previous state. */
    virtual void setup() = 0;

    /** Run one operation. Spans go to @p trace when it records. */
    virtual OpResult run(LayerTrace &trace) = 0;

    /** Fill op.layer from the spans of one traced operation. */
    virtual void addLayerMetrics(const OpSpans &spans, OpResult &op) const
    {
        (void)spans;
        (void)op;
    }
};

std::unique_ptr<Workload> makePaperReport(const RunOptions &opts);
std::unique_ptr<Workload> makeShardedScreen(const RunOptions &opts);
std::unique_ptr<Workload> makeCpiExact(const RunOptions &opts);
std::unique_ptr<Workload> makeOptSearch(const RunOptions &opts);

/** User+system CPU seconds of this process and its waited-for
 *  children. */
double cpuSeconds();

/** User+system CPU seconds of waited-for children only. */
double childCpuSeconds();

/** Peak resident set [MB] of this process / of its largest child. */
double selfPeakRssMb();
double childPeakRssMb();

/** Counter value from the process-global trace::Metrics registry. */
std::uint64_t counterValue(const char *name);

} // namespace perfbench

#endif // YAC_PERFBENCH_BENCH_HH
