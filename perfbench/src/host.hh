/**
 * @file
 * Host fingerprint and resolved-engine record printed with every
 * benchmark result.
 */

#ifndef YAC_PERFBENCH_HOST_HH
#define YAC_PERFBENCH_HOST_HH

#include <string>

namespace perfbench
{

/** CPU model, nproc, SIMD flags, build type and compiler, as JSON. */
std::string hostFingerprintJson();

/** The simd_dispatch_* counters after the run, as JSON. */
std::string resolvedEngineJson();

} // namespace perfbench

#endif // YAC_PERFBENCH_HOST_HH
