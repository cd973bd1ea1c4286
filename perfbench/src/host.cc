#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench.hh"
#include "host.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "util/vecmath.hh"

namespace perfbench
{

namespace
{

double
seconds(const timeval &tv)
{
    return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
}

rusage
usage(int who)
{
    rusage ru{};
    ::getrusage(who, &ru);
    return ru;
}

/** First "key : value" line of /proc/cpuinfo whose key is @p key. */
std::string
cpuinfoField(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string k = line.substr(0, colon);
        k.erase(k.find_last_not_of(" \t") + 1);
        if (k == key) {
            const std::size_t v = line.find_first_not_of(" \t", colon + 1);
            return v == std::string::npos ? "" : line.substr(v);
        }
    }
    return "unknown";
}

} // namespace

double
cpuSeconds()
{
    const rusage self = usage(RUSAGE_SELF);
    return seconds(self.ru_utime) + seconds(self.ru_stime) +
        childCpuSeconds();
}

double
childCpuSeconds()
{
    const rusage kids = usage(RUSAGE_CHILDREN);
    return seconds(kids.ru_utime) + seconds(kids.ru_stime);
}

double
selfPeakRssMb()
{
    return double(usage(RUSAGE_SELF).ru_maxrss) / 1024.0;
}

double
childPeakRssMb()
{
    return double(usage(RUSAGE_CHILDREN).ru_maxrss) / 1024.0;
}

std::uint64_t
counterValue(const char *name)
{
    return yac::trace::Metrics::instance().counter(name).value();
}

std::string
hostFingerprintJson()
{
    std::istringstream flags(cpuinfoField("flags"));
    std::string simd;
    for (std::string flag; flags >> flag;) {
        if (flag == "sse4_2" || flag == "avx" || flag == "avx2" ||
            flag == "fma" || flag == "avx512f") {
            simd += simd.empty() ? "" : " ";
            simd += flag;
        }
    }
    std::ostringstream out;
    out << "{\"cpu_model\":\""
        << yac::trace::jsonEscape(cpuinfoField("model name"))
        << "\",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
        << ",\"simd_flags\":\"" << simd << "\",\"avx2_fma\":"
        << (yac::vecmath::hostHasAvx2Fma() ? "true" : "false")
        << ",\"build_type\":\"" << YAC_PERFBENCH_BUILD_TYPE
        << "\",\"compiler\":\""
        << yac::trace::jsonEscape(__VERSION__) << "\"}";
    return out.str();
}

std::string
resolvedEngineJson()
{
    std::ostringstream out;
    out << "{\"simd_dispatch_avx2\":" << counterValue("simd_dispatch_avx2")
        << ",\"simd_dispatch_scalar\":"
        << counterValue("simd_dispatch_scalar") << "}";
    return out.str();
}

} // namespace perfbench
