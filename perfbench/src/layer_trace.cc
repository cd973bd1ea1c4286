#include "layer_trace.hh"

#include <string_view>

#include "trace/trace.hh"

namespace perfbench
{

namespace
{

std::string
layerOf(const char *name)
{
    const std::string_view n(name);
    return std::string(n.substr(0, n.find('.')));
}

} // namespace

double
OpSpans::totalNs(const std::string &name) const
{
    const auto it = durationsNs.find(name);
    double total = 0.0;
    if (it != durationsNs.end()) {
        for (double d : it->second)
            total += d;
    }
    return total;
}

std::size_t
OpSpans::count(const std::string &name) const
{
    const auto it = durationsNs.find(name);
    return it == durationsNs.end() ? 0 : it->second.size();
}

LayerTrace::LayerTrace(bool recording)
    : recording_(recording), epoch_(std::chrono::steady_clock::now())
{
}

LayerTrace::Span::Span(LayerTrace *trace, const char *name)
    : trace_(trace)
{
    if (trace_ != nullptr)
        index_ = trace_->open(name);
}

LayerTrace::Span::~Span()
{
    if (trace_ != nullptr)
        trace_->close(index_);
}

std::int64_t
LayerTrace::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::size_t
LayerTrace::open(const char *name)
{
    Record r;
    r.name = name;
    r.parent = stack_.empty() ? -1 : std::ptrdiff_t(stack_.back());
    r.startNs = now();
    records_.push_back(r);
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
}

void
LayerTrace::close(std::size_t index)
{
    Record &r = records_[index];
    r.endNs = now();
    stack_.pop_back();
    if (r.parent >= 0)
        records_[std::size_t(r.parent)].childNs += r.endNs - r.startNs;
}

void
LayerTrace::beginOp()
{
    if (recording_)
        opRoot_ = open("unattributed.op");
}

OpSpans
LayerTrace::endOp()
{
    OpSpans out;
    if (!recording_)
        return out;
    close(opRoot_);
    for (std::size_t i = opRoot_; i < records_.size(); ++i) {
        const Record &r = records_[i];
        const double dur = double(r.endNs - r.startNs);
        out.selfNs[layerOf(r.name)] += dur - double(r.childNs);
        if (i != opRoot_)
            out.durationsNs[r.name].push_back(dur);
    }
    out.wallNs = double(records_[opRoot_].endNs -
                        records_[opRoot_].startNs);
    return out;
}

void
LayerTrace::writeChromeTrace(const std::string &path) const
{
    yac::trace::Recorder recorder;
    for (const Record &r : records_) {
        yac::trace::TraceEvent event;
        event.name = r.name;
        event.category = layerOf(r.name);
        event.tsUs = r.startNs / 1000;
        event.durUs = (r.endNs - r.startNs) / 1000;
        event.tid = 1;
        recorder.record(std::move(event));
    }
    recorder.writeFile(path);
}

} // namespace perfbench
