/**
 * @file
 * The benchmark's own span recorder. The harness opens a span around
 * each public call it makes into a yac layer; a span's name is
 * "<layer>.<call>", so "variation.sampleChipSoa" belongs to the
 * variation layer. Spans are timed with std::chrono::steady_clock on
 * the calling thread and nest: a layer's self time is its spans'
 * durations minus the part their child spans cover, and the part of an
 * operation no layer span covers is reported as unattributed.
 *
 * A recorder built with recording=false hands out inert spans, so the
 * untraced and traced runs execute the same harness code.
 */

#ifndef YAC_PERFBENCH_LAYER_TRACE_HH
#define YAC_PERFBENCH_LAYER_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Span totals of one operation. */
struct OpSpans
{
    double wallNs = 0.0; //!< the operation's root span
    /** Self time by layer; the root's own self time is "unattributed". */
    std::map<std::string, double> selfNs;
    /** Every span's duration, by span name, in call order. */
    std::map<std::string, std::vector<double>> durationsNs;

    double totalNs(const std::string &name) const;
    std::size_t count(const std::string &name) const;
};

class LayerTrace
{
  public:
    explicit LayerTrace(bool recording);

    LayerTrace(const LayerTrace &) = delete;
    LayerTrace &operator=(const LayerTrace &) = delete;

    bool recording() const { return recording_; }

    /** RAII span; inert when the recorder does not record. */
    class Span
    {
      public:
        Span(LayerTrace *trace, const char *name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        LayerTrace *trace_;
        std::size_t index_ = 0;
    };

    /** Open a span named "<layer>.<call>" until the result dies. */
    [[nodiscard]] Span span(const char *name)
    {
        return Span(recording_ ? this : nullptr, name);
    }

    /** Open the root span of one operation. */
    void beginOp();
    /** Close it and summarize the spans recorded since beginOp(). */
    OpSpans endOp();

    /** Write every recorded span as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string &path) const;

    std::size_t spanCount() const { return records_.size(); }

  private:
    struct Record
    {
        const char *name = nullptr;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int64_t childNs = 0;
        std::ptrdiff_t parent = -1;
    };

    std::size_t open(const char *name);
    void close(std::size_t index);
    std::int64_t now() const;

    bool recording_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Record> records_;
    std::vector<std::size_t> stack_;
    std::size_t opRoot_ = 0;
};

} // namespace perfbench

#endif // YAC_PERFBENCH_LAYER_TRACE_HH
