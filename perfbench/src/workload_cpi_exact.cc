/**
 * @file
 * cpi_exact: a small naive population priced chip by chip with the
 * exact pipeline simulator -- priceCpiPopulation through
 * CpiOracle(CpiMode::Sim) over the SPEC 2000 suite, on a table with no
 * models and shortened simulation windows. Almost all of its time is
 * in the sim layer; variation and circuit run once, in set-up. Every
 * operation starts from an empty SimCache and uses no cache file, so
 * a simulator or deduplication change shows here and nowhere else.
 *
 * Traced, the harness replays priceCpiPopulation's chunk loop itself
 * so each CpiOracle::meanDegradation call gets a span; the digest
 * proves the replay prices the population to the same bytes.
 */

#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "bench.hh"
#include "sim/sim_cache.hh"
#include "sim/surrogate.hh"
#include "util/parallel.hh"
#include "workload/profile.hh"
#include "yield/campaign.hh"
#include "yield/cpi_pricing.hh"

namespace perfbench
{
namespace
{

void
addTally(Digest &d, const yac::WeightTally &t)
{
    d.add(t.count).add(t.sum()).add(t.sumSq());
}

class CpiExact : public Workload
{
  public:
    explicit CpiExact(const RunOptions &opts)
        : chips_((opts.smoke ? 1 : 4) * yac::parallel::kStatChunk)
    {
        // The seed picks the synthetic instruction traces every
        // simulation runs; the population is the paper's (seed 2006),
        // so each seed prices the same set of degraded configurations.
        // Its four chunks are priced in parallel; two threads that miss
        // the SimCache on one configuration at once both simulate it,
        // so only the traced, one-thread run counts simulations.
        table_.simSeed = opts.seed;
        table_.warmupInsts = 500;
        table_.measureInsts = opts.smoke ? 500 : 2000;
    }

    void
    setup() override
    {
        // The population is fixed input here: sampled and screened
        // once, with the default engine.
        yac::CampaignRequest request;
        request.spec = yac::CampaignConfig(chips_, kPopulationSeed);
        campaign_ = yac::runCampaign(request);

        yac::SimCache::instance().clear();
        const auto t0 = std::chrono::steady_clock::now();
        oracle_ = std::make_unique<yac::CpiOracle>(yac::CpiMode::Sim, table_);
        baselineMs_ = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    }

    OpResult
    run(LayerTrace &trace) override
    {
        yac::SimCache::instance().clear();
        const std::uint64_t hits0 = counterValue("sim_cache_hits");
        const std::uint64_t misses0 = counterValue("sim_cache_misses");
        const std::uint64_t runs0 = counterValue("sim_runs");
        const std::uint64_t insts0 = counterValue("sim_insts");

        yac::CpiPricing pricing;
        {
            auto span = trace.span("yield.priceCpiPopulation");
            pricing = trace.recording()
                ? tracedPricing(trace)
                : yac::priceCpiPopulation(campaign_.population,
                                          campaign_.limits,
                                          campaign_.mapping, *oracle_);
        }

        OpResult op;
        op.chips = double(pricing.population.count);
        hits_ = double(counterValue("sim_cache_hits") - hits0);
        misses_ = double(counterValue("sim_cache_misses") - misses0);
        runs_ = double(counterValue("sim_runs") - runs0);
        insts_ = double(counterValue("sim_insts") - insts0);
        op.counts["sim_minsts_per_s"] = 1e-6 * insts_;
        if (runs_ == 0.0)
            op.error = "no simulation ran: the SimCache was not cold";
        if (pricing.shipped.count > pricing.population.count ||
            pricing.population.count != chips_)
            op.error = "pricing lost chips";

        Digest d;
        addTally(d, pricing.population);
        addTally(d, pricing.shipped);
        d.add(pricing.deg.count()).add(pricing.deg.mean())
            .add(pricing.deg.stddev());
        d.add(pricing.wDeg.mean()).add(pricing.wDeg.weightSum());
        op.digest = d.value();
        return op;
    }

    void
    addLayerMetrics(const OpSpans &spans, OpResult &op) const override
    {
        const double sim_ns = spans.totalNs("sim.meanDegradation");
        op.layer["yield.cpi_pricing_ms"] =
            1e-6 * spans.totalNs("yield.priceCpiPopulation");
        op.layer["sim.runs"] = runs_;
        op.layer["sim.ms_per_run"] = 1e-6 * sim_ns / runs_;
        op.layer["sim.ns_per_inst"] = sim_ns / insts_;
        op.layer["sim.cache_lookups"] = hits_ + misses_;
        op.layer["sim.cache_hit_ratio"] = hits_ / (hits_ + misses_);
        op.layer["sim.distinct_configs_per_chip"] =
            double(distinctConfigs_) / double(chips_);
        // Measured in the last set-up, where the oracle is built.
        op.layer["sim.baseline_ms"] = baselineMs_;
    }

  private:
    /** priceCpiPopulation's loop at one thread, one span per
     *  CpiOracle::meanDegradation call. */
    yac::CpiPricing
    tracedPricing(LayerTrace &trace)
    {
        const yac::MonteCarloResult &pop = campaign_.population;
        const yac::SimConfig &base = oracle_->baseline();
        const yac::BenchmarkProfile &profile = yac::spec2000Profiles()[0];
        std::set<std::uint64_t> distinct;
        yac::CpiPricing out;
        for (std::size_t begin = 0; begin < pop.regular.size();
             begin += yac::parallel::kStatChunk) {
            const std::size_t end = std::min(
                pop.regular.size(), begin + yac::parallel::kStatChunk);
            yac::CpiPricing acc;
            for (std::size_t i = begin; i < end; ++i) {
                const double w = pop.weights[i];
                acc.population.add(w);
                const std::optional<yac::SimConfig> cfg =
                    yac::shippedSimConfig(pop.regular[i], campaign_.limits,
                                          campaign_.mapping, base);
                if (!cfg)
                    continue;
                distinct.insert(yac::SimCache::key(profile, *cfg));
                double deg = 0.0;
                {
                    auto span = trace.span("sim.meanDegradation");
                    deg = oracle_->meanDegradation(*cfg);
                }
                acc.shipped.add(w);
                acc.deg.add(deg);
                acc.wDeg.add(deg, w);
            }
            out.population.merge(acc.population);
            out.shipped.merge(acc.shipped);
            out.deg.merge(acc.deg);
            out.wDeg.merge(acc.wDeg);
        }
        distinctConfigs_ = distinct.size();
        return out;
    }

    static constexpr std::uint64_t kPopulationSeed = 2006;

    std::size_t chips_;
    yac::SurrogateTable table_;
    yac::CampaignResult campaign_;
    std::unique_ptr<yac::CpiOracle> oracle_;
    double baselineMs_ = 0.0;
    std::size_t distinctConfigs_ = 0;
    double hits_ = 0.0, misses_ = 0.0, runs_ = 0.0, insts_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeCpiExact(const RunOptions &opts)
{
    return std::make_unique<CpiExact>(opts);
}

} // namespace perfbench
