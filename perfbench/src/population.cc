#include "population.hh"

#include <vector>

#include "util/normal_source.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/statistics.hh"
#include "util/vecmath.hh"

namespace perfbench
{

namespace
{

/** Per-chunk moments, as MonteCarlo::run keeps them. */
struct ChunkStats
{
    yac::RunningStats regDelay, regLeak, horDelay, horLeak;
    yac::WeightedRunningStats wRegDelay, wRegLeak, wHorDelay, wHorLeak;
};

template <typename Stats>
yac::PopulationStats
statsOf(const Stats &delay, const Stats &leak)
{
    yac::PopulationStats s;
    s.delayMean = delay.mean();
    s.delaySigma = delay.stddev();
    s.leakMean = leak.mean();
    s.leakSigma = leak.stddev();
    return s;
}

std::size_t
timingBytes(const yac::CacheTiming &t)
{
    std::size_t bytes = sizeof t + t.ways.capacity() * sizeof(yac::WayTiming);
    for (const yac::WayTiming &w : t.ways) {
        bytes += (w.pathDelays.capacity() + w.groupCellLeakage.capacity()) *
            sizeof(double);
    }
    return bytes;
}

} // namespace

yac::MonteCarloResult
layeredPopulation(const yac::MonteCarlo &mc,
                  const yac::BatchChipEvaluator &evaluator,
                  const yac::CampaignConfig &config, LayerTrace &trace,
                  yac::ChipBatchSoa &arena)
{
    const yac::vecmath::SimdKernel kernel =
        yac::vecmath::resolveSimdKernel(config.engine.simd);
    const yac::SamplingPlan &plan = config.engine.sampling;
    const bool naive = plan.isNaive();
    const std::size_t n = config.numChips;

    yac::MonteCarloResult result;
    result.regular.resize(n);
    result.horizontal.resize(n);
    result.weights.resize(n);
    result.sampling = plan;

    const yac::Rng rng(config.seed);
    const yac::NormalSource source(kernel);
    const yac::ChipDrawCounts counts = mc.sampler().chipDrawCounts();
    ChunkStats total;
    for (std::size_t begin = 0; begin < n;
         begin += yac::parallel::kStatChunk) {
        const std::size_t end =
            std::min(n, begin + yac::parallel::kStatChunk);
        if (kernel == yac::vecmath::SimdKernel::Avx2) {
            auto span = trace.span("variation.sampleChipSoaBlock");
            arena.ensure(mc.sampler().geometry(), end - begin);
            for (std::size_t i = begin; i < end; ++i) {
                yac::Rng chip_rng = rng.split(i);
                yac::sampleChipSoaBlock(mc.sampler(), source, chip_rng,
                                        arena, i - begin, plan, counts);
            }
        } else {
            auto span = trace.span("variation.sampleChipSoa");
            arena.ensure(mc.sampler().geometry(), end - begin);
            for (std::size_t i = begin; i < end; ++i) {
                yac::Rng chip_rng = rng.split(i);
                yac::sampleChipSoa(mc.sampler(), chip_rng, arena,
                                   i - begin, plan);
            }
        }
        {
            auto span = trace.span("circuit.evaluateChip");
            for (std::size_t i = begin; i < end; ++i) {
                yac::CacheTiming &reg = result.regular[i];
                yac::CacheTiming &hor = result.horizontal[i];
                evaluator.prepareTiming(reg, yac::CacheLayout::Regular);
                evaluator.prepareTiming(hor, yac::CacheLayout::Horizontal);
                evaluator.evaluateChip(arena, i - begin, reg, &hor, kernel);
            }
        }
        ChunkStats s;
        for (std::size_t i = begin; i < end; ++i) {
            const double w = arena.weight[i - begin];
            result.weights[i] = w;
            const yac::CacheTiming &reg = result.regular[i];
            const yac::CacheTiming &hor = result.horizontal[i];
            if (naive) {
                s.regDelay.add(reg.delay());
                s.regLeak.add(reg.leakage());
                s.horDelay.add(hor.delay());
                s.horLeak.add(hor.leakage());
            } else {
                s.wRegDelay.add(reg.delay(), w);
                s.wRegLeak.add(reg.leakage(), w);
                s.wHorDelay.add(hor.delay(), w);
                s.wHorLeak.add(hor.leakage(), w);
            }
        }
        if (naive) {
            total.regDelay.merge(s.regDelay);
            total.regLeak.merge(s.regLeak);
            total.horDelay.merge(s.horDelay);
            total.horLeak.merge(s.horLeak);
        } else {
            total.wRegDelay.merge(s.wRegDelay);
            total.wRegLeak.merge(s.wRegLeak);
            total.wHorDelay.merge(s.wHorDelay);
            total.wHorLeak.merge(s.wHorLeak);
        }
    }
    if (naive) {
        result.regularStats = statsOf(total.regDelay, total.regLeak);
        result.horizontalStats = statsOf(total.horDelay, total.horLeak);
    } else {
        result.regularStats = statsOf(total.wRegDelay, total.wRegLeak);
        result.horizontalStats = statsOf(total.wHorDelay, total.wHorLeak);
    }
    return result;
}

double
populationBytesPerChip(const yac::MonteCarloResult &population)
{
    std::size_t bytes = population.weights.capacity() * sizeof(double);
    for (const yac::CacheTiming &t : population.regular)
        bytes += timingBytes(t);
    for (const yac::CacheTiming &t : population.horizontal)
        bytes += timingBytes(t);
    return double(bytes) / double(population.regular.size());
}

} // namespace perfbench
